//! The discrete-event simulation engine.

use crate::config::SimConfig;
use crate::nodes::NodeTable;
use crate::result::{ProactiveStats, SimResult};
use crate::scarlett::{ProactiveTransfer, ScarlettState};
use dare_core::{Policy, PolicyCtx, PolicyKind, ReplicationDecision};
use dare_dfs::{BlockId, DefaultPlacement, Dfs};
use dare_net::flow::{FlowId, FlowSim};
use dare_net::{NodeId, MB};
use dare_sched::{
    locality::classify, JobId, JobQueue, Locality, LocationLookup, PendingTask, Scheduler,
    SkipDecision, TaskId,
};
use dare_simcore::fnv::fnv1a_u64;
use dare_simcore::{DetRng, EventQueue, FxHashMap, FxHashSet, SimDuration, SimTime};
use dare_telemetry::Value::{F64, U64};
use dare_telemetry::{JobPhase, JobSample, NodeSample, Profiler, Subsystem, Telemetry, Window};
use dare_trace::{FlowCtx, FlowKind, Loc, Trace, TraceEvent};
use dare_workload::Workload;

mod check;

/// Borrow-based location lookup over the DFS's merged visible-location
/// lists. `locations` returns the name node's maintained slice, so the
/// scheduler's probe path performs no allocation.
pub struct DfsLookup<'a>(pub &'a Dfs);

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
    Heartbeat { node: u32, periodic: bool, epoch: u32 },
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
    ScrubDone { node: u32, epoch: u32, pass_bytes: u64 },
}

/// Outcome of one [`Engine::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One event was dispatched; the run is still in progress.
    Progressed,
    /// Every job has reached a terminal state; nothing was dispatched.
    Quiescent,
}

/// Order-insensitive 64-bit digest of one pending event, for the state
/// fingerprint: variant tag plus every payload field. Times inside
/// events (none today) would need now-relative treatment; all current
/// payloads are ids, epochs, and durations.
fn ev_digest(ev: &Ev) -> u64 {
    const P: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |tag: u64, fields: &[u64]| {
        let mut h = tag.wrapping_mul(P);
        for &f in fields {
            h = (h.rotate_left(13) ^ f).wrapping_mul(P);
        }
        h
    };
    match *ev {
        Ev::JobArrival(j) => fold(1, &[j as u64]),
        Ev::Heartbeat {
            node,
            periodic,
            epoch,
        } => fold(2, &[node as u64, periodic as u64, epoch as u64]),
        Ev::HeartbeatTick => fold(3, &[]),
        Ev::LocalReadDone {
            node,
            job,
            task,
            attempt,
        } => fold(4, &[node as u64, job as u64, task as u64, attempt as u64]),
        Ev::NetCheck => fold(5, &[]),
        Ev::ComputeDone {
            node,
            job,
            task,
            attempt,
        } => fold(6, &[node as u64, job as u64, task as u64, attempt as u64]),
        Ev::ReduceDone { node, job } => fold(7, &[node as u64, job as u64]),
        Ev::Epoch => fold(8, &[]),
        Ev::NodeCrash {
            node,
            permanent,
            down_secs,
        } => fold(9, &[node as u64, permanent as u64, down_secs]),
        Ev::NodeRejoin(n) => fold(10, &[n as u64]),
        Ev::DeclareDead { node, epoch } => fold(11, &[node as u64, epoch as u64]),
        Ev::TaskRetry { job, task, attempt } => {
            fold(12, &[job as u64, task as u64, attempt as u64])
        }
        Ev::NodeDegrade(n, f) => fold(13, &[n as u64, f.to_bits()]),
        Ev::NodeGray { node, disk, nic } => {
            fold(17, &[node as u64, disk.to_bits(), nic.to_bits()])
        }
        Ev::CorruptReplica { node, block } => fold(14, &[node as u64, block]),
        Ev::ScrubStart { node, epoch } => fold(15, &[node as u64, epoch as u64]),
        Ev::ScrubDone {
            node,
            epoch,
            pass_bytes,
        } => fold(16, &[node as u64, epoch as u64, pass_bytes]),
    }
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

/// What destroyed a block's last physical copy — crash-path losses and
/// corruption-path losses are accounted separately.
#[derive(Debug, Clone, Copy)]
enum LossCause {
    Crash,
    Corruption,
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
    /// Map-task attempts that had to be re-executed due to failures.
    pub reexecuted_tasks: u64,
    /// Speculative backup attempts launched.
    pub speculative_launches: u64,
    /// Races resolved while a duplicate attempt was still running (the
    /// committed completion "won"; the duplicate's work is discarded).
    pub speculative_wins: u64,
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

/// Map the scheduler's locality class onto the trace schema's.
fn trace_loc(l: Locality) -> Loc {
    match l {
        Locality::NodeLocal => Loc::Node,
        Locality::RackLocal => Loc::Rack,
        Locality::Remote => Loc::Remote,
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
    /// scheduler `cfg.scheduler` names. The differential tests and the
    /// scheduler benchmark pass the reference scheduler
    /// (`Scheduler::naive`) through here.
    pub fn with_scheduler(cfg: SimConfig, workload: &Workload, scheduler: Scheduler) -> Self {
        Self::build(cfg, workload, Some(scheduler)).expect("invalid simulation input")
    }

    /// Validate the inputs, then build the engine, driven by `scheduler`
    /// or, when `None`, by the indexed scheduler `cfg.scheduler` names
    /// (made only once the config has passed, since it panics on invalid
    /// parameters).
    fn build(
        cfg: SimConfig,
        workload: &Workload,
        scheduler: Option<Scheduler>,
    ) -> Result<Self, crate::SimError> {
        let invalid =
            |what: &str, e: String| crate::SimError::InvalidInput(format!("invalid {what}: {e}"));
        // The plan first, so its errors are reported as the plan's.
        cfg.faults
            .validate(cfg.profile.nodes)
            .map_err(|e| invalid("fault plan", e))?;
        cfg.validate().map_err(|e| invalid("simulation config", e))?;
        workload.validate().map_err(|e| invalid("workload", e))?;
        let mut scheduler = scheduler.unwrap_or_else(|| Scheduler::new(cfg.scheduler));
        let root = DetRng::new(cfg.seed);

        let topo = cfg.topology();
        let n = topo.nodes() as usize;
        cfg.faults
            .validate_topology(&topo)
            .map_err(|e| invalid("fault plan", e))?;

        let mut cap_rng = root.substream("capacities");
        let disk_caps_mbps = cfg.profile.sample_disk_capacities(&mut cap_rng);
        let nic_caps = cfg.profile.sample_nic_capacities(&mut cap_rng);
        let flows = FlowSim::new(nic_caps, cfg.profile.oversub);

        let mut dfs = Dfs::new(cfg.dfs.clone(), topo);

        // Ingest the dataset at t = 0.
        let mut ingest_rng = root.substream("ingest");
        let mut file_ids = Vec::with_capacity(workload.files.len());
        for f in &workload.files {
            let fid = dfs.create_file(
                SimTime::ZERO,
                f.name.clone(),
                f.size_bytes,
                None,
                &DefaultPlacement,
                &mut ingest_rng,
                false,
            );
            file_ids.push(fid);
        }
        // Corruption targets reference concrete block ids, known only now
        // that the dataset is ingested.
        cfg.faults
            .validate_blocks(dfs.namenode().num_blocks() as u64)
            .map_err(|e| invalid("fault plan", e))?;

        // Access popularity per file (fraction of jobs reading it) — the
        // blockPopularity of the Fig. 11 metric.
        let mut file_popularity = vec![0.0f64; workload.files.len()];
        for j in &workload.jobs {
            file_popularity[j.file] += 1.0 / workload.jobs.len() as f64;
        }

        // Per-node dynamic-replica budget.
        let budget_bytes = ((dfs.total_primary_bytes() as f64 / n as f64) * cfg.budget_frac) as u64;
        let policies = vec![Policy::new(cfg.policy, budget_bytes); n];
        let policy_rngs: Vec<DetRng> = (0..n)
            .map(|i| root.substream_idx("policy-node", i as u64))
            .collect();

        if cfg.record_trace {
            scheduler.set_tracing(true);
        }

        // Job states with analytic dedicated-cluster runtimes.
        let total_slots = cfg.profile.total_map_slots().max(1);
        let total_reduce_slots = (cfg.profile.nodes * cfg.profile.reduce_slots_per_node).max(1);
        let disk_mean = cfg.profile.disk.mean();
        let net_mean = cfg.profile.network.mean();
        let jobs: Vec<JobState> = workload
            .jobs
            .iter()
            .map(|j| {
                let blocks = dfs.namenode().file(file_ids[j.file]).blocks.clone();
                let maps = blocks.len() as u64;
                let waves = maps.div_ceil(total_slots as u64);
                let read_secs = cfg.dfs.block_size as f64 / (disk_mean * MB as f64);
                let per_map = SimDuration::from_secs_f64(read_secs) + j.map_compute;
                let per_reducer = reduce_duration(
                    j.output_bytes,
                    j.reduces,
                    j.map_compute,
                    net_mean,
                    disk_mean,
                    cfg.dfs.replication_factor,
                );
                let reduce_waves = (j.reduces as u64).div_ceil(total_reduce_slots as u64);
                let dedicated =
                    per_map.mul_f64(waves as f64) + per_reducer.mul_f64(reduce_waves as f64);
                JobState {
                    arrival: j.arrival,
                    attempts: vec![0; blocks.len()],
                    task_class: vec![Locality::Remote; blocks.len()],
                    done: vec![false; blocks.len()],
                    failed: false,
                    started_at: vec![SimTime::ZERO; blocks.len()],
                    live_attempts: vec![0; blocks.len()],
                    oldest_live_start: SimTime::ZERO,
                    completed_secs: 0.0,
                    blocks,
                    map_compute: j.map_compute,
                    output_bytes: j.output_bytes,
                    reduces: j.reduces,
                    reduces_done: 0,
                    maps_done: 0,
                    node_local: 0,
                    rack_local: 0,
                    remote: 0,
                    dedicated,
                }
            })
            .collect();

        let mut events = EventQueue::new();
        for (i, j) in jobs.iter().enumerate() {
            events.push(j.arrival, Ev::JobArrival(i as u32));
        }
        if cfg.batched_heartbeats {
            // One timer drives every node's heartbeat (no per-node chains,
            // no jitter) — the million-task configuration.
            events.push(SimTime::ZERO, Ev::HeartbeatTick);
        } else {
            // Staggered periodic heartbeats.
            let hb = cfg.heartbeat;
            for i in 0..n {
                let offset = SimDuration::from_micros(hb.as_micros() * i as u64 / n as u64);
                events.push(
                    SimTime::ZERO + offset,
                    Ev::Heartbeat {
                        node: i as u32,
                        periodic: true,
                        epoch: 0,
                    },
                );
            }
        }

        let cv_before = popularity_cv_of(&dfs, &file_popularity);
        let mut nodes = NodeTable::new(
            n,
            cfg.profile.map_slots_per_node,
            cfg.profile.reduce_slots_per_node,
        );
        // Armed runs log every write from here on; the first check
        // covers every node and block.
        let marks = check::Marks::new(cfg.check_invariants, dfs.namenode().num_blocks());
        if cfg.check_invariants {
            nodes.log_touches();
            dfs.log_touches(true);
        }

        let scarlett = cfg.scarlett.map(|sc| {
            events.push(SimTime::ZERO + sc.epoch, Ev::Epoch);
            ScarlettState::new(sc, workload.files.len())
        });
        // Expand the fault plan into concrete injection events. A rack
        // outage is modeled as a simultaneous transient crash of every
        // node in the rack (shared switch/PDU failure).
        for ev in &cfg.faults.events {
            match *ev {
                crate::faults::FaultEvent::Kill { at_secs, node } => {
                    events.push(
                        SimTime::from_secs(at_secs),
                        Ev::NodeCrash {
                            node,
                            permanent: true,
                            down_secs: 0,
                        },
                    );
                }
                crate::faults::FaultEvent::Crash {
                    at_secs,
                    node,
                    down_secs,
                } => {
                    events.push(
                        SimTime::from_secs(at_secs),
                        Ev::NodeCrash {
                            node,
                            permanent: false,
                            down_secs,
                        },
                    );
                }
                crate::faults::FaultEvent::RackOutage {
                    at_secs,
                    rack,
                    down_secs,
                } => {
                    for &nid in dfs.topology().rack_members(dare_net::RackId(rack)) {
                        events.push(
                            SimTime::from_secs(at_secs),
                            Ev::NodeCrash {
                                node: nid.0,
                                permanent: false,
                                down_secs,
                            },
                        );
                    }
                }
                crate::faults::FaultEvent::Slowdown {
                    at_secs,
                    node,
                    factor,
                    duration_secs,
                } => {
                    events.push(SimTime::from_secs(at_secs), Ev::NodeDegrade(node, factor));
                    if let Some(d) = duration_secs {
                        events.push(SimTime::from_secs(at_secs + d), Ev::NodeDegrade(node, 1.0));
                    }
                }
                crate::faults::FaultEvent::CorruptReplica { at_secs, node, block } => {
                    events.push(SimTime::from_secs(at_secs), Ev::CorruptReplica { node, block });
                }
                // The master lives on side A, so a partition is — from
                // its point of view — a simultaneous transient crash of
                // every side-B node: heartbeats and flows across the cut
                // stop, the missed-heartbeat timeout declares the far
                // side dead, and the heal rejoins each node with a block
                // report (the same reconciliation path as a rejoin).
                crate::faults::FaultEvent::Partition {
                    at_secs,
                    ref racks_b,
                    heal_secs,
                    ..
                } => {
                    for &rack in racks_b {
                        for &nid in dfs.topology().rack_members(dare_net::RackId(rack)) {
                            events.push(
                                SimTime::from_secs(at_secs),
                                Ev::NodeCrash {
                                    node: nid.0,
                                    permanent: false,
                                    down_secs: heal_secs,
                                },
                            );
                        }
                    }
                }
                crate::faults::FaultEvent::GrayNode {
                    at_secs,
                    node,
                    secs,
                    disk_factor,
                    nic_factor,
                } => {
                    events.push(
                        SimTime::from_secs(at_secs),
                        Ev::NodeGray {
                            node,
                            disk: disk_factor,
                            nic: nic_factor,
                        },
                    );
                    events.push(
                        SimTime::from_secs(at_secs + secs),
                        Ev::NodeGray {
                            node,
                            disk: 1.0,
                            nic: 1.0,
                        },
                    );
                }
            }
        }
        // Staggered background scrub passes (one chain per node).
        if let Some(sc) = cfg.scanner {
            for i in 0..n {
                let offset =
                    SimDuration::from_micros(sc.period.as_micros() * i as u64 / n as u64);
                events.push(
                    SimTime::ZERO + offset,
                    Ev::ScrubStart {
                        node: i as u32,
                        epoch: 0,
                    },
                );
            }
        }

        Ok(Engine {
            workload_name: workload.name.clone(),
            dfs,
            flows,
            scheduler,
            queue: JobQueue::with_job_capacity(jobs.len()),
            policies,
            policy_rngs,
            jobs,
            events,
            now: SimTime::ZERO,
            nodes,
            pending_reduces: std::collections::VecDeque::new(),
            active_local_reads: vec![0; n],
            disk_caps_mbps,
            fetches: FxHashMap::default(),
            next_netcheck: None,
            batch_cancelled: Vec::new(),
            jitter_rng: root.substream("task-jitter"),
            fetch_rng: root.substream("fetch-pick"),
            rtt_rng: root.substream("rtt"),
            promoted_scratch: Vec::new(),
            src_same_rack: Vec::new(),
            src_any: Vec::new(),
            file_popularity,
            finished: 0,
            outcomes: Vec::new(),
            cv_before,
            remote_bytes_fetched: 0,
            budget_bytes,
            inflight_proactive: vec![0; n],
            scarlett,
            proactive_flows: FxHashMap::default(),
            node_epoch: vec![0; n],
            recovery_q: std::collections::BTreeSet::new(),
            recovery_queued: FxHashSet::default(),
            recovery_seq: 0,
            recovery_flows: FxHashMap::default(),
            recovery_rng: root.substream("recovery"),
            lost_blocks: FxHashSet::default(),
            stats: dare_metrics::FaultStats::default(),
            scrubbing: vec![false; n],
            repair_started: FxHashMap::default(),
            slow_factor: vec![1.0; n],
            gray_disk: vec![1.0; n],
            gray_nic: vec![1.0; n],
            reexecuted_tasks: 0,
            speculative_launches: 0,
            speculative_wins: 0,
            tracer: cfg.record_trace.then(Trace::default),
            skip_scratch: Vec::new(),
            telem: {
                let corruption = cfg.scanner.is_some()
                    || cfg.faults.events.iter().any(|e| {
                        matches!(e, crate::faults::FaultEvent::CorruptReplica { .. })
                    });
                cfg.telemetry
                    .map(|tc| Box::new(TelemetryState::new(tc.interval, corruption)))
            },
            profiler: cfg.self_profile.then(|| Box::new(Profiler::new())),
            logical_events: 0,
            sched_offers: 0,
            marks,
            cfg,
        })
    }

    /// Record one trace event at the current simulation time (no-op
    /// unless `record_trace` is set).
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(self.now, ev);
        }
    }

    /// Drain the scheduler's recorded delay-scheduling declines into the
    /// trace. Called after every slot offer so skips land in the log
    /// before the launch (or give-up) they preceded.
    fn drain_skip_trace(&mut self) {
        if self.tracer.is_none() {
            return;
        }
        let mut skips = std::mem::take(&mut self.skip_scratch);
        self.scheduler.drain_skips(&mut skips);
        for s in skips.drain(..) {
            self.emit(TraceEvent::DelaySkip {
                job: s.job.0,
                node: s.node.0,
                skips: s.skips,
                offered: trace_loc(s.offered),
            });
        }
        self.skip_scratch = skips;
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
        self.events.push(self.now, Ev::CorruptReplica { node, block });
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

    /// FNV-1a fingerprint of the logical simulation state, for state-
    /// space deduplication. Covers the DFS extended fingerprint (replica
    /// map, corrupt bits, visible-location order, pending reports), node
    /// liveness/slot/epoch state, per-job progress, the scheduler queue,
    /// the recovery pipeline, in-flight flows (identity, relative start
    /// time, and current rate), and a digest of the pending event queue
    /// with times relative to `now` — so states reached at different
    /// absolute times but with identical remaining behavior collide.
    ///
    /// Monotone counters (attempt ids, liveness epochs, flow ids) are
    /// hashed raw: they can distinguish behaviorally equivalent states
    /// (costing dedup, never soundness). Flow *progress* is approximated
    /// by start time and current rate; see DESIGN.md for the residual
    /// approximation.
    pub fn state_fingerprint(&self) -> u64 {
        let now_us = self.now.as_micros();
        let ago = |t: SimTime| now_us.saturating_sub(t.as_micros());
        let mut h = self.dfs.extended_fingerprint(self.now);
        for i in 0..self.nodes.len() {
            fnv1a_u64(
                &mut h,
                self.nodes.crashed(i) as u64
                    | (self.nodes.declared(i) as u64) << 1
                    | (self.scrubbing[i] as u64) << 2,
            );
            fnv1a_u64(&mut h, self.node_epoch[i] as u64);
            fnv1a_u64(&mut h, self.nodes.free_map(i) as u64);
            fnv1a_u64(&mut h, self.nodes.free_reduce(i) as u64);
            fnv1a_u64(&mut h, self.nodes.running_reduces(i) as u64);
            fnv1a_u64(&mut h, self.active_local_reads[i] as u64);
            fnv1a_u64(&mut h, self.slow_factor[i].to_bits());
            fnv1a_u64(&mut h, self.gray_disk[i].to_bits());
            fnv1a_u64(&mut h, self.gray_nic[i].to_bits());
            for &(j, t) in self.nodes.running_on(i) {
                fnv1a_u64(&mut h, ((j as u64) << 32) | t as u64);
            }
            fnv1a_u64(&mut h, u64::MAX); // per-node terminator
        }
        for js in &self.jobs {
            fnv1a_u64(&mut h, js.maps_done as u64);
            fnv1a_u64(&mut h, js.reduces_done as u64);
            fnv1a_u64(&mut h, js.failed as u64);
            fnv1a_u64(&mut h, js.node_local as u64);
            fnv1a_u64(&mut h, js.rack_local as u64);
            fnv1a_u64(&mut h, js.remote as u64);
            for ti in 0..js.attempts.len() {
                fnv1a_u64(&mut h, js.attempts[ti] as u64);
                fnv1a_u64(
                    &mut h,
                    js.done[ti] as u64 | (js.live_attempts[ti] as u64) << 1,
                );
            }
        }
        fnv1a_u64(&mut h, self.finished as u64);
        for je in self.queue.jobs() {
            fnv1a_u64(&mut h, je.id.0 as u64);
            fnv1a_u64(&mut h, ago(je.arrival));
            fnv1a_u64(&mut h, je.running_maps() as u64);
            fnv1a_u64(&mut h, je.skip_count as u64);
            for pt in je.pending() {
                fnv1a_u64(&mut h, ((pt.task.0 as u64) << 32) | pt.block.0);
            }
            fnv1a_u64(&mut h, u64::MAX); // per-job terminator
        }
        for &(j, d) in &self.pending_reduces {
            fnv1a_u64(&mut h, j as u64);
            fnv1a_u64(&mut h, d.as_micros());
        }
        // Recovery queue: rank replaces the absolute enqueue seq (two
        // paths reaching the same backlog in the same relative order
        // must collide even if their raw counters differ).
        for (rank, &(vis, _seq, b)) in self.recovery_q.iter().enumerate() {
            fnv1a_u64(&mut h, vis as u64);
            fnv1a_u64(&mut h, rank as u64);
            fnv1a_u64(&mut h, b);
        }
        let mut rec: Vec<(u64, u32, u32, u32, u64)> = self
            .recovery_flows
            .iter()
            .map(|(fid, rx)| (rx.block.0, rx.src, rx.dst, rx.visible_at_start, fid.0))
            .collect();
        rec.sort_unstable();
        for (b, s, d, v, fid) in rec {
            fnv1a_u64(&mut h, b);
            fnv1a_u64(&mut h, ((s as u64) << 32) | d as u64);
            fnv1a_u64(&mut h, v as u64);
            self.mix_flow(&mut h, FlowId(fid), ago);
        }
        let mut lost: Vec<u64> = self.lost_blocks.iter().copied().collect();
        lost.sort_unstable();
        for b in lost {
            fnv1a_u64(&mut h, b);
        }
        let mut repairs: Vec<(u64, u64)> = self
            .repair_started
            .iter()
            .map(|(&b, &t)| (b, ago(t)))
            .collect();
        repairs.sort_unstable();
        for (b, t) in repairs {
            fnv1a_u64(&mut h, b);
            fnv1a_u64(&mut h, t);
        }
        // (flow id, node, src, job, task, attempt, replicate flag, latency us)
        type FetchFp = (u64, u32, u32, u32, u32, u32, u64, u64);
        let mut fetches: Vec<FetchFp> = self
            .fetches
            .iter()
            .map(|(fid, f)| {
                (
                    fid.0,
                    f.node,
                    f.src,
                    f.job,
                    f.task,
                    f.attempt,
                    f.replicate as u64,
                    f.latency.as_micros(),
                )
            })
            .collect();
        fetches.sort_unstable();
        for (fid, node, src, job, task, attempt, repl, lat) in fetches {
            fnv1a_u64(&mut h, ((node as u64) << 32) | src as u64);
            fnv1a_u64(&mut h, ((job as u64) << 32) | task as u64);
            fnv1a_u64(&mut h, (attempt as u64) | repl << 32);
            fnv1a_u64(&mut h, lat);
            self.mix_flow(&mut h, FlowId(fid), ago);
        }
        let mut pro: Vec<(u64, u64, u32, u32)> = self
            .proactive_flows
            .iter()
            .map(|(fid, p)| (fid.0, p.block.0, p.src, p.dst))
            .collect();
        pro.sort_unstable();
        for (fid, b, s, d) in pro {
            fnv1a_u64(&mut h, b);
            fnv1a_u64(&mut h, ((s as u64) << 32) | d as u64);
            self.mix_flow(&mut h, FlowId(fid), ago);
        }
        // Pending event queue, canonical order, times relative to now;
        // seq rank (not raw seq) keeps same-time FIFO order visible.
        let mut evs: Vec<(u64, u64, u64)> = Vec::with_capacity(self.events.len());
        self.events
            .for_each_scheduled(|t, seq, ev| evs.push((t.as_micros(), seq, ev_digest(ev))));
        evs.sort_unstable();
        for (rank, (t, _seq, d)) in evs.iter().enumerate() {
            fnv1a_u64(&mut h, t.saturating_sub(now_us));
            fnv1a_u64(&mut h, rank as u64);
            fnv1a_u64(&mut h, *d);
        }
        h
    }

    /// Mix one in-flight flow's identity, relative start time, and
    /// current rate into the fingerprint.
    fn mix_flow(&self, h: &mut u64, fid: FlowId, ago: impl Fn(SimTime) -> u64) {
        fnv1a_u64(h, fid.0);
        fnv1a_u64(h, self.flows.started_at(fid).map_or(u64::MAX, &ago));
        fnv1a_u64(h, self.flows.rate_of(fid).map_or(u64::MAX, f64::to_bits));
    }

    /// Emit samples for every pending tick strictly before `next_event`.
    fn pump_telemetry(&mut self, next_event: SimTime) {
        while let Some(tick) = self.telem.as_ref().map(|s| s.next) {
            if tick >= next_event {
                return;
            }
            self.take_sample(tick, false);
            if let Some(s) = self.telem.as_mut() {
                s.next = tick + s.interval;
            }
        }
    }

    /// Drain the ticks left at end of run, then take one terminal sample
    /// at the final simulation time (with a terminal row for every job).
    fn final_telemetry(&mut self) {
        let end = self.now;
        self.pump_telemetry(end);
        self.take_sample(end, true);
    }

    /// Snapshot the cluster at tick `ts`: one cluster row, one row per
    /// node, one row per in-flight job (every job when `terminal`).
    /// Observation-only: reads engine state, mutates nothing outside the
    /// sampler itself.
    fn take_sample(&mut self, ts: SimTime, terminal: bool) {
        let Some(mut telem) = self.telem.take() else {
            return;
        };
        let t_us = ts.as_micros();
        let n = self.nodes.len();
        let map_cap = self.cfg.profile.map_slots_per_node;
        let red_cap = self.cfg.profile.reduce_slots_per_node;
        self.flows.nic_utilization_into(&mut telem.util_scratch);

        // Per-node rows, accumulating the master-visible slot totals: a
        // silently crashed node still advertises its slots until the
        // missed-heartbeat timeout declares it dead, which is exactly the
        // step change the fault-telemetry test pins at the detection tick.
        let (mut map_used, mut map_total) = (0u64, 0u64);
        let (mut red_used, mut red_total) = (0u64, 0u64);
        let mut running_reduces = 0u64;
        for i in 0..n {
            let declared = self.nodes.declared(i);
            let nm_total = if declared { 0 } else { map_cap };
            let nm_used = nm_total.saturating_sub(self.nodes.free_map(i));
            let nr_total = if declared { 0 } else { red_cap };
            let nr_used = nr_total.saturating_sub(self.nodes.free_reduce(i));
            map_used += nm_used as u64;
            map_total += nm_total as u64;
            red_used += nr_used as u64;
            red_total += nr_total as u64;
            running_reduces += self.nodes.running_reduces(i) as u64;
            let (tx, rx) = telem.util_scratch[i];
            telem.link_util.push(tx);
            telem.link_util.push(rx);
            let dn = self.dfs.datanode(NodeId(i as u32));
            telem.out.nodes.push(NodeSample {
                t_us,
                node: i as u32,
                alive: !self.nodes.crashed(i) && !declared,
                advertised: !declared,
                map_used: nm_used,
                map_total: nm_total,
                reduce_used: nr_used,
                reduce_total: nr_total,
                dynamic_blocks: dn.dynamic_count() as u64,
                dynamic_bytes: dn.dynamic_bytes(),
                tx_util: tx,
                rx_util: rx,
            });
        }

        // Per-job rows plus the cumulative locality tally. The locality
        // classes count launched attempts (rolled back if an attempt dies),
        // so the rate is over launched work, in-flight maps included; at
        // the terminal sample they equal the outcome counters exactly.
        let (mut maps_done, mut node_local) = (0u64, 0u64);
        let (mut rack_local, mut remote) = (0u64, 0u64);
        for (j, js) in self.jobs.iter().enumerate() {
            maps_done += js.maps_done as u64;
            node_local += js.node_local as u64;
            rack_local += js.rack_local as u64;
            remote += js.remote as u64;
            let phase = if js.failed {
                JobPhase::Failed
            } else if js.maps_done as usize == js.blocks.len() && js.reduces_done >= js.reduces {
                JobPhase::Done
            } else {
                JobPhase::Running
            };
            if terminal || (js.arrival <= ts && phase == JobPhase::Running) {
                telem.out.jobs.push(JobSample {
                    t_us,
                    job: j as u32,
                    phase,
                    maps_total: js.blocks.len() as u32,
                    maps_done: js.maps_done,
                    node_local: js.node_local,
                    rack_local: js.rack_local,
                    remote: js.remote,
                    reduces_done: js.reduces_done,
                });
            }
        }

        // Each cluster column is named once, here, where its value is
        // computed; the first tick records the names.
        let d = self.stats.delta(&telem.prev_faults);
        telem.prev_faults = self.stats;
        let depth = self.queue.depth();
        let dyn_bytes = self.dfs.total_dynamic_bytes();
        let primary = self.dfs.total_primary_bytes();
        let t = &mut telem.out;
        t.push_row(t_us);
        t.put("map_slots_used", U64(map_used));
        t.put("map_slots_total", U64(map_total));
        t.put("reduce_slots_used", U64(red_used));
        t.put("reduce_slots_total", U64(red_total));
        t.put("queued_jobs", U64(depth.jobs as u64));
        t.put("pending_tasks", U64(depth.pending_tasks as u64));
        t.put("running_maps", U64(depth.running_maps as u64));
        t.put("pending_reduces", U64(self.pending_reduces.len() as u64));
        t.put("running_reduces", U64(running_reduces));
        t.put("maps_done", U64(maps_done));
        t.put("node_local", U64(node_local));
        t.put("rack_local", U64(rack_local));
        t.put("remote", U64(remote));
        let launched = node_local + rack_local + remote;
        let locality = if launched == 0 { 0.0 } else { node_local as f64 / launched as f64 };
        t.put("locality_rate", F64(locality));
        t.put("dynamic_replicas", U64(self.dfs.total_dynamic_replicas()));
        t.put("dynamic_bytes", U64(dyn_bytes));
        let overhead = if primary == 0 { 0.0 } else { dyn_bytes as f64 / primary as f64 };
        t.put("storage_overhead", F64(overhead));
        t.put("under_replicated", U64(self.recovery_q.len() as u64));
        t.put("lost_blocks", U64(self.lost_blocks.len() as u64));
        t.put("active_flows", U64(self.flows.active() as u64));
        t.put("fetch_flows", U64(self.fetches.len() as u64));
        t.put("recovery_flows", U64(self.recovery_flows.len() as u64));
        t.put("proactive_flows", U64(self.proactive_flows.len() as u64));
        t.put_window("link_util", &mut telem.link_util);
        t.put("d_nodes_declared_dead", U64(d.nodes_declared_dead));
        t.put("d_nodes_rejoined", U64(d.nodes_rejoined));
        t.put("d_blocks_re_replicated", U64(d.blocks_re_replicated));
        t.put("d_recovery_bytes", U64(d.recovery_bytes));
        t.put("d_blocks_lost", U64(d.blocks_lost));
        t.put("d_tasks_retried", U64(d.tasks_retried));
        t.put("d_tasks_failed", U64(d.tasks_failed));
        t.put("d_jobs_failed", U64(d.jobs_failed));
        if let Some(repair_time) = telem.repair_time.as_mut() {
            t.put("corrupt_replicas", U64(self.dfs.total_corrupt_replicas()));
            t.put("quarantine_depth", U64(self.repair_started.len() as u64));
            t.put("d_scrub_bytes", U64(d.scrub_bytes));
            t.put("d_checksum_failures", U64(d.checksum_failures));
            t.put("d_scrub_detections", U64(d.scrub_detections));
            t.put("d_replicas_quarantined", U64(d.replicas_quarantined));
            t.put_window("repair_time_secs", repair_time);
        }
        self.telem = Some(telem);
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
                self.flows.set_node_factor(self.now, NodeId(node), nic.max(1.0));
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

    fn on_job_arrival(&mut self, j: u32) {
        self.emit(TraceEvent::JobSubmitted {
            job: j,
            maps: self.jobs[j as usize].blocks.len() as u32,
        });
        let job = &self.jobs[j as usize];
        let tasks = job.blocks.iter().enumerate().map(|(i, &b)| PendingTask {
            task: TaskId(i as u32),
            block: b,
        });
        self.queue.add_job(
            JobId(j),
            job.arrival,
            tasks,
            &DfsLookup(&self.dfs),
            self.dfs.topology(),
        );
    }

    fn on_heartbeat(&mut self, node: u32, periodic: bool, epoch: u32) {
        if periodic && epoch != self.node_epoch[node as usize] {
            return; // chain from before a crash/rejoin: superseded
        }
        if !self.node_up(node as usize) {
            return;
        }
        // Dynamic replicas become visible in a batch; mirror every
        // promotion into the queue's locality index.
        self.process_promotions();
        self.service_map_slots(node);
        self.fill_reduce_slots();
        if periodic {
            // Heartbeat intervals drift a few percent in real clusters; the
            // jitter also prevents the simulator from phase-locking job
            // arrivals to a fixed node rotation.
            let interval = self
                .cfg
                .heartbeat
                .mul_f64(self.jitter_rng.uniform_range(0.95, 1.05));
            self.events.push(
                self.now + interval,
                Ev::Heartbeat {
                    node,
                    periodic: true,
                    epoch,
                },
            );
        }
    }

    /// Promotions the name node batched up become visible to the
    /// scheduler's locality index (the scratch copy ends the `dfs`
    /// borrow before the queue is told).
    fn process_promotions(&mut self) {
        self.promoted_scratch.clear();
        self.promoted_scratch
            .extend_from_slice(self.dfs.process_reports(self.now));
        for i in 0..self.promoted_scratch.len() {
            let (b, n) = self.promoted_scratch[i];
            self.queue.note_replica_added(b, n, self.dfs.topology());
        }
    }

    /// Fill every free map slot on `node` the scheduler can use, falling
    /// back to a speculative backup when no regular work fits.
    fn service_map_slots(&mut self, node: u32) {
        while self.nodes.free_map(node as usize) > 0 {
            self.sched_offers += 1;
            let assignment = {
                let lookup = DfsLookup(&self.dfs);
                self.scheduler.pick_map(
                    &mut self.queue,
                    NodeId(node),
                    &lookup,
                    self.dfs.topology(),
                )
            };
            self.drain_skip_trace();
            match assignment {
                Some(a) => self.launch_map(node, a.job.0, a.task.0, a.block, false),
                None => {
                    // No regular work: consider a speculative backup for a
                    // straggling attempt before giving the slot up.
                    if !self.try_speculate(node) {
                        break;
                    }
                }
            }
        }
    }

    /// Batched-heartbeat timer: drain every live node's heartbeat in
    /// ascending node order, then re-arm one timer for the next interval.
    /// Replaces `n` periodic events (and their jitter draws) per interval
    /// with a single pop, and — the larger win — hoists the per-heartbeat
    /// work that is identical across the batch out of the per-node loop:
    /// replica promotions are processed once per tick (per-node chains
    /// re-check per node and find an empty report after the first), the
    /// reduce queue is drained once, and nodes that cannot take a map
    /// task (no free slot, down, or nothing pending and no speculation
    /// configured) are skipped with one comparison each. A tick over an
    /// idle or fully-busy 10k-node cluster costs one slot-vector scan,
    /// not 10k full heartbeat services. The eliminated per-node calls
    /// are no-ops by construction, so the batch services exactly the
    /// nodes a per-node sweep at the same instant would.
    ///
    /// Node heartbeats run un-jittered and simultaneous, so timing
    /// differs from the staggered default; the flag is therefore opt-in
    /// and never mixed into golden traces.
    fn on_heartbeat_tick(&mut self) {
        let n = self.nodes.len();
        self.logical_events += n as u64;
        self.process_promotions();
        let may_assign =
            self.queue.total_pending() > 0 || self.cfg.speculation.is_some();
        if may_assign {
            for node in 0..n {
                if self.nodes.free_map(node) > 0 && self.node_up(node) {
                    self.service_map_slots(node as u32);
                }
            }
        }
        self.fill_reduce_slots();
        self.events.push(self.now + self.cfg.heartbeat, Ev::HeartbeatTick);
    }

    /// Start a map task on `node` reading `block`. `speculative` marks a
    /// backup attempt: it skips locality accounting (the original attempt
    /// already recorded the task) but still drives the DARE policy, since
    /// a backup is a genuinely scheduled map task.
    fn launch_map(&mut self, node: u32, job: u32, task: u32, block: BlockId, speculative: bool) {
        let node_id = NodeId(node);
        {
            let js = &mut self.jobs[job as usize];
            js.started_at[task as usize] = self.now;
            js.live_attempts[task as usize] += 1;
        }
        let attempt = self.jobs[job as usize].attempts[task as usize];
        // Read-path verification: opening a corrupt local replica fails
        // its checksum immediately. The replica is quarantined and the
        // attempt degrades to a remote fetch below — detection happens at
        // read time, never at injection time.
        if self.dfs.is_physically_present(node_id, block)
            && self.dfs.is_replica_corrupt(node_id, block)
        {
            self.stats.checksum_failures += 1;
            self.emit(TraceEvent::ChecksumFailed {
                node,
                block: block.0,
                job,
                task,
                attempt,
            });
            self.quarantine_and_repair(node, block);
        }
        self.nodes.running_on_mut(node as usize).push((job, task));
        let present = self.dfs.is_physically_present(node_id, block);
        let bytes = self.dfs.namenode().block_size(block);
        let file = self.dfs.namenode().file_of(block);
        if let Some(sc) = self.scarlett.as_mut() {
            sc.record_access(file);
        }

        // Actual read locality (an unreported local replica counts as
        // node-local because the bytes are read from local disk).
        let level = if present {
            Locality::NodeLocal
        } else {
            let lookup = DfsLookup(&self.dfs);
            classify(block, node_id, &lookup, self.dfs.topology())
        };
        self.emit(TraceEvent::TaskLaunched {
            job,
            task,
            attempt,
            node,
            loc: trace_loc(level),
            speculative,
            local_read: present,
        });
        // Metrics: backup attempts don't re-count their task.
        if !speculative {
            let js = &mut self.jobs[job as usize];
            js.task_class[task as usize] = level;
            match level {
                Locality::NodeLocal => js.node_local += 1,
                Locality::RackLocal => js.rack_local += 1,
                Locality::Remote => js.remote += 1,
            }
        }

        // DARE hook: the node's policy sees every scheduled map task.
        // Vanilla Hadoop has no policy to ask and draws no coin.
        let decision = if matches!(self.cfg.policy, PolicyKind::Vanilla) {
            ReplicationDecision::SKIP
        } else {
            self.policies[node as usize].on_map_task(PolicyCtx {
                block,
                file,
                block_bytes: bytes,
                is_local: present,
                rng: &mut self.policy_rngs[node as usize],
            })
        };
        let replicate = decision.replicate;
        if replicate || !decision.evict.is_empty() {
            let mut evicted = 0u32;
            for v in decision.evict {
                if let Some(visible) = self.dfs.evict_dynamic(node_id, v) {
                    evicted += 1;
                    if visible {
                        self.queue
                            .note_replica_removed(v, node_id, self.dfs.topology());
                    }
                    self.emit(TraceEvent::ReplicaEvicted { node, block: v.0 });
                }
            }
            self.emit(TraceEvent::ReplicaDecision {
                node,
                block: block.0,
                replicate,
                evictions: evicted,
            });
        }

        *self.nodes.free_map_mut(node as usize) -= 1;

        if present {
            // Local read: disk capacity shared among concurrent readers.
            // A running scrub pass takes its budget off the top first
            // (floored at half the disk so an oversized budget can't
            // starve task reads outright).
            let readers = self.active_local_reads[node as usize] + 1;
            self.active_local_reads[node as usize] = readers;
            let mut cap = self.disk_caps_mbps[node as usize];
            if self.scrubbing[node as usize] {
                let scrub_mbps = self
                    .cfg
                    .scanner
                    .map_or(0.0, |s| s.bytes_per_sec as f64 / MB as f64);
                cap = (cap - scrub_mbps).max(cap * 0.5);
            }
            // Limplock and gray-disk derating compound; gray touches the
            // read path only (compute stays intact, unlike `slow_factor`
            // which also stretches `task_compute`).
            let share = cap
                / readers as f64
                / (self.slow_factor[node as usize] * self.gray_disk[node as usize]);
            let dur = SimDuration::from_secs_f64(bytes as f64 / (share * MB as f64));
            self.events.push(
                self.now + dur,
                Ev::LocalReadDone {
                    node,
                    job,
                    task,
                    attempt,
                },
            );
        } else {
            // Remote fetch through the flow simulator.
            let Some(src) = self.pick_source(block, node_id) else {
                // Every replica sits on a node that crashed but has not
                // been declared yet: nothing can serve the read right now.
                // Abort the attempt with a forced backoff (an instant
                // retry would spin until detection or rejoin).
                if speculative {
                    // The backup's pre-checked source was the local
                    // replica the checksum just quarantined: tear down
                    // only this backup, leaving the original running.
                    self.nodes
                        .running_on_mut(node as usize)
                        .retain(|&(j, t)| !(j == job && t == task));
                    *self.nodes.free_map_mut(node as usize) += 1;
                    let js = &mut self.jobs[job as usize];
                    js.live_attempts[task as usize] =
                        js.live_attempts[task as usize].saturating_sub(1);
                    self.emit(TraceEvent::TaskAborted {
                        job,
                        task,
                        attempt,
                        node,
                    });
                    return;
                }
                self.abort_attempt(job, task, true);
                return;
            };
            let cross = self.dfs.topology().crosses_racks(src, node_id);
            let hops = self.dfs.topology().base_hops(src, node_id).max(1);
            let latency = SimDuration::from_secs_f64(
                self.cfg.profile.rtt.sample_secs(&mut self.rtt_rng) * hops as f64 / 2.0,
            );
            let fid = self.flows.start(self.now, src, node_id, bytes, cross);
            self.emit(TraceEvent::FlowStarted {
                flow: fid.0,
                kind: FlowKind::Fetch,
                src: src.0,
                dst: node,
                bytes,
                cross_rack: cross,
                ctx: FlowCtx::Fetch { job, task, attempt },
            });
            self.fetches.insert(
                fid,
                Fetch {
                    node,
                    src: src.0,
                    job,
                    task,
                    attempt,
                    replicate,
                    latency,
                },
            );
            self.remote_bytes_fetched += bytes;
            self.schedule_netcheck();
        }
    }

    /// Choose the replica a remote reader fetches from: same-rack replicas
    /// preferred, ties broken uniformly at random. `None` when no live
    /// node can serve the block (every visible replica is on a crashed or
    /// declared-dead node).
    fn pick_source(&mut self, block: BlockId, reader: NodeId) -> Option<NodeId> {
        let locs = self.dfs.visible_locations(block);
        let topo = self.dfs.topology();
        // One pass over the replica list into reusable buffers, preserving
        // the list's order so the rng draw is unchanged.
        self.src_same_rack.clear();
        self.src_any.clear();
        let mut reader_holds = false;
        for &l in locs {
            if l == reader {
                reader_holds = true;
                continue;
            }
            if !self.node_up(l.idx()) {
                continue; // silent or dead nodes serve nothing
            }
            self.src_any.push(l);
            if topo.same_rack(l, reader) {
                self.src_same_rack.push(l);
            }
        }
        let pool: &[NodeId] = if self.src_same_rack.is_empty() {
            &self.src_any
        } else {
            &self.src_same_rack
        };
        if pool.is_empty() {
            // Every replica is on the reader itself (can happen transiently
            // after failures) — read "remotely" from itself at NIC speed.
            return reader_holds.then_some(reader);
        }
        Some(pool[self.fetch_rng.index(pool.len())])
    }

    /// True when launching a map for `block` on `reader` could actually
    /// read bytes right now: the block is physically on the reader, or
    /// some visible replica sits on a live node. Stale locations pointing
    /// at silently crashed nodes don't count.
    fn has_live_source(&self, block: BlockId, reader: NodeId) -> bool {
        if self.dfs.is_physically_present(reader, block) {
            return true;
        }
        self.dfs
            .visible_locations(block)
            .iter()
            .any(|l| *l == reader || self.node_up(l.idx()))
    }

    /// Cancel a flow and record it for the current NetCheck batch (see
    /// `batch_cancelled`). Every teardown of an in-flight flow must go
    /// through here so the orphan-flow check can tell a legitimate
    /// same-batch cancellation apart from bookkeeping drift.
    fn cancel_flow(&mut self, fid: FlowId, kind: FlowKind) {
        self.flows.cancel(self.now, fid);
        self.batch_cancelled.push(fid.0);
        self.emit(TraceEvent::FlowCancelled { flow: fid.0, kind });
    }

    fn schedule_netcheck(&mut self) {
        if let Some((t, _)) = self.flows.next_completion() {
            let t = t.max(self.now);
            if self.next_netcheck.is_none_or(|cur| t < cur) {
                self.events.push(t, Ev::NetCheck);
                self.next_netcheck = Some(t);
            }
        }
    }

    fn on_net_check(&mut self) -> Result<(), crate::SimError> {
        self.next_netcheck = None;
        // The batch stays in the flow model's reusable buffer; the loop
        // below starts and cancels flows but never collects again.
        let done = self.flows.collect_completed(self.now).len();
        self.batch_cancelled.clear();
        for i in 0..done {
            let (fid, started) = self.flows.completed_starts()[i];
            let dur_us = self.now.saturating_since(started).as_micros();
            if let Some(pt) = self.proactive_flows.remove(&fid) {
                if self.tracer.is_some() {
                    let bytes = self.dfs.namenode().block_size(pt.block);
                    self.emit(TraceEvent::FlowFinished {
                        flow: fid.0,
                        kind: FlowKind::Proactive,
                        src: pt.src,
                        dst: pt.dst,
                        bytes,
                        dur_us,
                        ctx: FlowCtx::Block { block: pt.block.0 },
                    });
                }
                self.on_proactive_done(pt);
                continue;
            }
            if let Some(rx) = self.recovery_flows.remove(&fid) {
                if self.tracer.is_some() {
                    let bytes = self.dfs.namenode().block_size(rx.block);
                    self.emit(TraceEvent::FlowFinished {
                        flow: fid.0,
                        kind: FlowKind::Recovery,
                        src: rx.src,
                        dst: rx.dst,
                        bytes,
                        dur_us,
                        ctx: FlowCtx::Block { block: rx.block.0 },
                    });
                }
                self.on_recovery_done(rx);
                continue;
            }
            let Some(f) = self.fetches.remove(&fid) else {
                // A completion earlier in this batch may have torn the
                // flow down (job failure aborting a sibling fetch,
                // quarantine cancelling a tainted repair): its record is
                // gone but the fid was already drained into this batch. Only
                // an untracked disappearance is bookkeeping drift.
                if self.batch_cancelled.contains(&fid.0) {
                    continue;
                }
                return Err(crate::SimError::OrphanFlow {
                    now: self.now,
                    flow: fid.0,
                });
            };
            let js = &self.jobs[f.job as usize];
            let block = js.blocks[f.task as usize];
            if self.tracer.is_some() {
                let bytes = self.dfs.namenode().block_size(block);
                self.emit(TraceEvent::FlowFinished {
                    flow: fid.0,
                    kind: FlowKind::Fetch,
                    src: f.src,
                    dst: f.node,
                    bytes,
                    dur_us,
                    ctx: FlowCtx::Fetch {
                        job: f.job,
                        task: f.task,
                        attempt: f.attempt,
                    },
                });
            }
            // Read-path verification of the fetched bytes: a corrupt
            // source replica fails the reader-side checksum when the
            // stream completes. The source is quarantined and the attempt
            // retries — its next launch picks a different source because
            // quarantine removed this one from the visible set.
            if self.dfs.is_replica_corrupt(NodeId(f.src), block) {
                self.stats.checksum_failures += 1;
                self.emit(TraceEvent::ChecksumFailed {
                    node: f.src,
                    block: block.0,
                    job: f.job,
                    task: f.task,
                    attempt: f.attempt,
                });
                self.quarantine_and_repair(f.src, block);
                if f.replicate {
                    // The garbage bytes are never kept as a dynamic
                    // replica; roll back the policy's bookkeeping.
                    self.policies[f.node as usize].forget(block);
                }
                let ji = f.job as usize;
                let current = self.jobs[ji].attempts[f.task as usize] == f.attempt;
                if current && !self.jobs[ji].done[f.task as usize] && !self.jobs[ji].failed {
                    self.abort_attempt(f.job, f.task, false);
                } else {
                    // Superseded (a backup or the original already
                    // committed, or the attempt was aborted): release
                    // this reader's registration if it still exists.
                    let ri = f.node as usize;
                    if let Some(p) = self.nodes.running_on(ri)
                        .iter()
                        .position(|&(j, t)| j == f.job && t == f.task)
                    {
                        self.nodes.running_on_mut(ri).swap_remove(p);
                        if self.node_up(ri) {
                            *self.nodes.free_map_mut(ri) += 1;
                        }
                        self.emit(TraceEvent::TaskAborted {
                            job: f.job,
                            task: f.task,
                            attempt: f.attempt,
                            node: f.node,
                        });
                        let live = &mut self.jobs[ji].live_attempts[f.task as usize];
                        *live = live.saturating_sub(1);
                    }
                }
                continue;
            }
            if f.replicate {
                // The bytes are here; keep them (DNA_DYNREPL). On failure
                // (e.g. the block arrived by another path meanwhile) roll
                // back the policy's bookkeeping.
                if self.dfs.insert_dynamic(self.now, NodeId(f.node), block) {
                    self.emit(TraceEvent::ReplicaCommitted {
                        node: f.node,
                        block: block.0,
                    });
                } else {
                    self.policies[f.node as usize].forget(block);
                }
            }
            if self.jobs[f.job as usize].attempts[f.task as usize] != f.attempt {
                continue; // attempt aborted by a failure while fetching
            }
            self.emit(TraceEvent::TaskReadDone {
                job: f.job,
                task: f.task,
                attempt: f.attempt,
                node: f.node,
            });
            let compute = self.task_compute(f.job, f.node);
            self.events.push(
                self.now + f.latency + compute,
                Ev::ComputeDone {
                    node: f.node,
                    job: f.job,
                    task: f.task,
                    attempt: f.attempt,
                },
            );
        }
        self.batch_cancelled.clear();
        self.schedule_netcheck();
        Ok(())
    }

    fn on_local_read_done(&mut self, node: u32, job: u32, task: u32, attempt: u32) {
        if self.nodes.crashed(node as usize) {
            return; // zombie: the node went silent mid-read
        }
        if self.jobs[job as usize].attempts[task as usize] != attempt {
            return; // attempt aborted by a failure mid-read
        }
        debug_assert!(self.active_local_reads[node as usize] > 0);
        self.active_local_reads[node as usize] -= 1;
        self.emit(TraceEvent::TaskReadDone {
            job,
            task,
            attempt,
            node,
        });
        let compute = self.task_compute(job, node);
        self.events.push(
            self.now + compute,
            Ev::ComputeDone {
                node,
                job,
                task,
                attempt,
            },
        );
    }

    /// Per-task compute time: the job's base compute ±10 % jitter, scaled
    /// by the running node's health factor.
    fn task_compute(&mut self, job: u32, node: u32) -> SimDuration {
        let base = self.jobs[job as usize].map_compute;
        base.mul_f64(self.jitter_rng.uniform_range(0.9, 1.1) * self.slow_factor[node as usize])
    }

    /// Try to launch one speculative backup attempt on `node`. Returns true
    /// when a backup was launched (the caller may offer the slot again).
    fn try_speculate(&mut self, node: u32) -> bool {
        let Some(spec) = self.cfg.speculation else {
            return false;
        };
        if !self.node_up(node as usize) || self.nodes.free_map(node as usize) == 0 {
            return false;
        }
        // A job is speculation-eligible when all its maps are handed out
        // but some attempts straggle well past the job's average. The
        // common case (nothing straggling anywhere) must stay O(jobs):
        // `oldest_live_start` lower-bounds every live attempt's start, so
        // a job whose oldest attempt is under threshold needs no scan.
        for ji in 0..self.queue.len() {
            let (job, eligible) = {
                let j = &self.queue.jobs()[ji];
                (j.id.0, j.pending().is_empty() && j.running_maps() > 0)
            };
            if !eligible {
                continue;
            }
            let js = &self.jobs[job as usize];
            if js.maps_done == 0 {
                continue; // no baseline duration yet
            }
            let avg = js.completed_secs / js.maps_done as f64;
            let threshold = (avg * spec.slowdown_factor).max(spec.min_elapsed_secs);
            if self
                .now
                .saturating_since(js.oldest_live_start)
                .as_secs_f64()
                <= threshold
            {
                continue; // even the oldest attempt is not straggling
            }
            let straggler = (0..js.blocks.len()).find(|&t| {
                !js.done[t]
                    && js.live_attempts[t] == 1
                    && self.now.saturating_since(js.started_at[t]).as_secs_f64() > threshold
                    // never co-locate the backup with the straggler
                    && !self.nodes.running_on(node as usize).contains(&(job, t as u32))
                    // a backup must have something live to read from
                    && self.has_live_source(js.blocks[t], NodeId(node))
            });
            if let Some(task) = straggler {
                let block = js.blocks[task];
                self.speculative_launches += 1;
                self.launch_map(node, job, task as u32, block, true);
                return true;
            }
            // Scan came up empty: tighten the bound to the true minimum so
            // the next offer can reject cheaply. A task can only become
            // live via a fresh launch (start >= now), which keeps the
            // bound conservative.
            let min_start = (0..js.blocks.len())
                .filter(|&t| !js.done[t] && js.live_attempts[t] == 1)
                .map(|t| js.started_at[t])
                .min()
                .unwrap_or(self.now);
            self.jobs[job as usize].oldest_live_start = min_start;
        }
        false
    }

    fn on_compute_done(&mut self, node: u32, job: u32, task: u32, attempt: u32) {
        if self.nodes.crashed(node as usize) {
            return; // zombie: the node went silent while computing
        }
        if self.jobs[job as usize].attempts[task as usize] != attempt {
            return; // stale completion from an aborted attempt
        }
        self.nodes.running_on_mut(node as usize).retain(|&(j, t)| !(j == job && t == task));
        *self.nodes.free_map_mut(node as usize) += 1;
        {
            let js = &mut self.jobs[job as usize];
            js.live_attempts[task as usize] = js.live_attempts[task as usize].saturating_sub(1);
            if js.done[task as usize] {
                // The other attempt already committed; this one is wasted
                // work (Hadoop would have killed it).
                return;
            }
            js.done[task as usize] = true;
            if js.live_attempts[task as usize] > 0 {
                // The straggler is still running somewhere: the backup (or
                // the original) just won the race.
                self.speculative_wins += 1;
            }
        }
        let dur_us = self
            .now
            .saturating_since(self.jobs[job as usize].started_at[task as usize])
            .as_micros();
        self.emit(TraceEvent::TaskCommitted {
            job,
            task,
            attempt,
            node,
            dur_us,
        });
        self.queue.on_map_complete(JobId(job));
        let js = &mut self.jobs[job as usize];
        js.completed_secs += self
            .now
            .saturating_since(js.started_at[task as usize])
            .as_secs_f64();
        js.maps_done += 1;
        if js.maps_done as usize == js.blocks.len() {
            let per_reducer = reduce_duration(
                js.output_bytes,
                js.reduces,
                js.map_compute,
                self.cfg.profile.network.mean(),
                self.cfg.profile.disk.mean(),
                self.cfg.dfs.replication_factor,
            );
            self.queue.retire_job(JobId(job));
            for _ in 0..js.reduces {
                self.pending_reduces.push_back((job, per_reducer));
            }
            self.fill_reduce_slots();
        }
        // Out-of-band heartbeat: the freed slot is offered immediately.
        self.events.push(
            self.now,
            Ev::Heartbeat {
                node,
                periodic: false,
                epoch: self.node_epoch[node as usize],
            },
        );
    }

    /// Hand pending reduce tasks to free reduce slots (FIFO, any node —
    /// reducers pull from every map output, so placement has no locality).
    fn fill_reduce_slots(&mut self) {
        while let Some(&(job, dur)) = self.pending_reduces.front() {
            // Lowest-index live node with a free slot, via the sorted
            // free-node index (same pick as the old full scan).
            let Some(node) = self
                .nodes
                .reduce_free_nodes()
                .find(|&i| self.node_up(i as usize))
                .map(|i| i as usize)
            else {
                return;
            };
            self.pending_reduces.pop_front();
            *self.nodes.free_reduce_mut(node) -= 1;
            if self.nodes.free_reduce(node) == 0 {
                self.nodes.index_reduce_free(node, false);
            }
            *self.nodes.running_reduces_mut(node) += 1;
            self.events.push(
                self.now + dur,
                Ev::ReduceDone {
                    node: node as u32,
                    job,
                },
            );
        }
    }

    fn on_reduce_done(&mut self, node: u32, job: u32) {
        let ni = node as usize;
        *self.nodes.running_reduces_mut(ni) = self.nodes.running_reduces(ni).saturating_sub(1);
        if self.node_up(ni) {
            *self.nodes.free_reduce_mut(ni) += 1;
            self.nodes.index_reduce_free(ni, true);
        }
        let js = &mut self.jobs[job as usize];
        debug_assert!(!js.failed, "failed jobs never reach the reduce phase");
        js.reduces_done += 1;
        if js.reduces_done == js.reduces {
            let js = &self.jobs[job as usize];
            let arrival = js.arrival;
            self.outcomes.push(dare_metrics::JobOutcome {
                id: job,
                status: dare_metrics::JobStatus::Completed,
                arrival: js.arrival,
                completed: self.now,
                maps: js.blocks.len() as u32,
                node_local: js.node_local,
                rack_local: js.rack_local,
                remote: js.remote,
                dedicated: js.dedicated,
            });
            self.finished += 1;
            self.emit(TraceEvent::JobCompleted {
                job,
                dur_us: self.now.saturating_since(arrival).as_micros(),
            });
        }
        self.fill_reduce_slots();
    }

    /// Injected node crash: the node goes *silent*. Its running attempts
    /// become zombies (still registered, invisible to the master), flows
    /// touching it stop, and nothing else happens until the heartbeat
    /// timeout declares it dead — or it rejoins first.
    fn on_node_crash(&mut self, node: u32, permanent: bool, down_secs: u64) {
        let ni = node as usize;
        if self.nodes.crashed(ni) || self.nodes.declared(ni) {
            return; // idempotent: overlapping injections (rack + node)
        }
        self.nodes.set_crashed(ni, true);
        self.node_epoch[ni] += 1;
        self.active_local_reads[ni] = 0;
        self.scrubbing[ni] = false; // the in-flight pass dies with the node
        self.emit(TraceEvent::NodeCrashed { node, permanent });

        // Fetches INTO the node die with it; the zombie attempts stay in
        // `running_on` until declaration, but stop consuming bandwidth.
        let mut into: Vec<FlowId> = self
            .fetches
            .iter()
            .filter(|(_, f)| f.node == node)
            .map(|(&fid, _)| fid)
            .collect();
        into.sort_unstable(); // HashMap order is not deterministic
        for fid in into {
            self.fetches.remove(&fid);
            self.cancel_flow(fid, FlowKind::Fetch);
        }

        // Fetches *sourced* from the node but running elsewhere: the
        // reader sees its stream break immediately, so those attempts
        // abort and retry right away. A duplicate attempt of a task that
        // already committed (its backup or original won the race) is
        // wasted work — tear down just that fetch, no retry.
        let mut broken: Vec<(FlowId, u32, u32, u32)> = self
            .fetches
            .iter()
            .filter(|(_, f)| f.src == node)
            .map(|(&fid, f)| (fid, f.job, f.task, f.node))
            .collect();
        broken.sort_unstable_by_key(|&(fid, job, task, _)| (job, task, fid));
        for (fid, job, task, reader) in broken {
            if !self.fetches.contains_key(&fid) {
                continue; // torn down by an earlier abort of the same task
            }
            let js = &self.jobs[job as usize];
            if js.failed || js.done[task as usize] {
                if self.fetches.remove(&fid).is_some() {
                    self.cancel_flow(fid, FlowKind::Fetch);
                    self.emit(TraceEvent::TaskAborted {
                        job,
                        task,
                        attempt: self.jobs[job as usize].attempts[task as usize],
                        node: reader,
                    });
                    let ri = reader as usize;
                    if let Some(p) = self
                        .nodes
                        .running_on(ri)
                        .iter()
                        .position(|&(j, t)| j == job && t == task)
                    {
                        self.nodes.running_on_mut(ri).swap_remove(p);
                        if self.node_up(ri) {
                            *self.nodes.free_map_mut(ri) += 1;
                        }
                    }
                    let live = &mut self.jobs[job as usize].live_attempts[task as usize];
                    *live = live.saturating_sub(1);
                }
                continue;
            }
            self.abort_attempt(job, task, false);
        }

        // Proactive pushes to the node are cancelled; the next epoch
        // reconciles.
        let mut dead_pro: Vec<FlowId> = self
            .proactive_flows
            .iter()
            .filter(|(_, t)| t.dst == node)
            .map(|(&fid, _)| fid)
            .collect();
        dead_pro.sort_unstable();
        for fid in dead_pro {
            if let Some(t) = self.proactive_flows.remove(&fid) {
                let bytes = self.dfs.namenode().block_size(t.block);
                self.inflight_proactive[t.dst as usize] =
                    self.inflight_proactive[t.dst as usize].saturating_sub(bytes);
                self.cancel_flow(fid, FlowKind::Proactive);
            }
        }

        // Recovery transfers touching the node are cancelled and their
        // blocks put back in the queue.
        let mut rec: Vec<FlowId> = self
            .recovery_flows
            .iter()
            .filter(|(_, r)| r.src == node || r.dst == node)
            .map(|(&fid, _)| fid)
            .collect();
        rec.sort_unstable(); // repair-queue seq numbers depend on this order
        for fid in rec {
            if let Some(r) = self.recovery_flows.remove(&fid) {
                self.cancel_flow(fid, FlowKind::Recovery);
                self.note_block_under_replicated(r.block);
            }
        }

        if permanent {
            // The disk dies with the node. Its replicas stay *visible*
            // until declaration — the master doesn't know yet — so reads
            // routed at them fail over via `pick_source`/`has_live_source`.
            self.dfs.wipe_node(NodeId(node));
        } else {
            self.events
                .push(self.now + SimDuration::from_secs(down_secs), Ev::NodeRejoin(node));
        }

        // The master only learns of the silence after `detect_heartbeats`
        // missed heartbeats (Hadoop's 10x-heartbeat expiry).
        let timeout = self
            .cfg
            .heartbeat
            .mul_f64(self.cfg.faults.detect_heartbeats as f64);
        self.events.push(
            self.now + timeout,
            Ev::DeclareDead {
                node,
                epoch: self.node_epoch[ni],
            },
        );
        self.pump_recovery();
    }

    /// The missed-heartbeat timeout fired: the master gives up on the
    /// node. Its attempts are re-queued, its replicas dropped from the
    /// namenode's map, and the under-replicated blocks queued for repair.
    fn on_declare_dead(&mut self, node: u32, epoch: u32) {
        let ni = node as usize;
        if !self.nodes.crashed(ni) || self.nodes.declared(ni) || self.node_epoch[ni] != epoch {
            return; // rejoined before the timer fired, or already declared
        }
        self.nodes.set_declared(ni, true);
        self.stats.nodes_declared_dead += 1;
        *self.nodes.free_map_mut(ni) = 0;
        *self.nodes.free_reduce_mut(ni) = 0;
        self.nodes.index_reduce_free(ni, false);

        // The JobTracker re-queues everything that was running there.
        let victims: Vec<(u32, u32)> = std::mem::take(self.nodes.running_on_mut(ni));
        for (job, task) in victims {
            // The dead node's own registration is already out of
            // `running_on`, so `kill_attempt` can't see it: record the
            // abort of this zombie here.
            self.emit(TraceEvent::TaskAborted {
                job,
                task,
                attempt: self.jobs[job as usize].attempts[task as usize],
                node,
            });
            let js = &self.jobs[job as usize];
            if js.failed || js.done[task as usize] {
                // Committed elsewhere (a backup won) or the job is gone:
                // drop the zombie registration without a retry.
                let live = &mut self.jobs[job as usize].live_attempts[task as usize];
                *live = live.saturating_sub(1);
                continue;
            }
            self.abort_attempt(job, task, false);
        }

        // The namenode drops the node's replicas; re-replication is real,
        // prioritized work, not an instant fix-up.
        let under = self.dfs.mark_node_dead(NodeId(node));
        self.emit(TraceEvent::NodeDeclaredDead {
            node,
            under_replicated: under.len() as u32,
        });
        // Replica sets changed wholesale: rebuild the queue's locality
        // index against the new merged lists.
        self.queue
            .rebuild_index(&DfsLookup(&self.dfs), self.dfs.topology());
        for b in under {
            self.note_block_under_replicated(b);
        }
        self.pump_recovery();
    }

    /// A transiently crashed node comes back: fresh epoch, full slots, a
    /// block report reconciling its surviving replicas, and heartbeats
    /// resume. Whatever ran there when it went down was lost.
    fn on_node_rejoin(&mut self, node: u32) {
        let ni = node as usize;
        if !self.nodes.crashed(ni) {
            return;
        }
        self.nodes.set_crashed(ni, false);
        self.nodes.set_declared(ni, false);
        self.node_epoch[ni] += 1;
        self.stats.nodes_rejoined += 1;

        // The tracker restarts the node's interrupted attempts elsewhere.
        let zombies: Vec<(u32, u32)> = std::mem::take(self.nodes.running_on_mut(ni));
        for (job, task) in zombies {
            // As in `on_declare_dead`: this node's registration is already
            // gone from `running_on`, so record the zombie's abort here.
            self.emit(TraceEvent::TaskAborted {
                job,
                task,
                attempt: self.jobs[job as usize].attempts[task as usize],
                node,
            });
            let js = &self.jobs[job as usize];
            if js.failed || js.done[task as usize] {
                let live = &mut self.jobs[job as usize].live_attempts[task as usize];
                *live = live.saturating_sub(1);
                continue;
            }
            self.abort_attempt(job, task, false);
        }
        *self.nodes.free_map_mut(ni) = self.cfg.profile.map_slots_per_node;
        *self.nodes.free_reduce_mut(ni) = self
            .cfg
            .profile
            .reduce_slots_per_node
            .saturating_sub(self.nodes.running_reduces(ni));
        let free = self.nodes.free_reduce(ni) > 0;
        self.nodes.index_reduce_free(ni, free);

        // Block report: surviving replicas the namenode dropped at
        // declaration become visible again, and may satisfy queued
        // recovery (or finally provide a source for stalled repairs).
        let restored = self.dfs.rejoin_node(NodeId(node));
        self.emit(TraceEvent::NodeRejoined {
            node,
            restored: restored.len() as u32,
        });
        for &b in &restored {
            self.queue.note_replica_added(b, NodeId(node), self.dfs.topology());
            self.note_block_under_replicated(b);
        }

        // Heartbeats resume immediately under the fresh epoch (under
        // batched heartbeats the global tick already covers this node).
        if !self.cfg.batched_heartbeats {
            self.events.push(
                self.now,
                Ev::Heartbeat {
                    node,
                    periodic: true,
                    epoch: self.node_epoch[ni],
                },
            );
        }
        // The background scanner restarts its chain under the new epoch.
        if self.cfg.scanner.is_some() {
            self.events.push(
                self.now,
                Ev::ScrubStart {
                    node,
                    epoch: self.node_epoch[ni],
                },
            );
        }
        self.pump_recovery();
    }

    /// Kill a task's live attempts: bump the attempt id so in-flight
    /// events go stale, cancel its fetch flows, refund surviving runners'
    /// slots, and roll back the attempt's locality accounting.
    fn kill_attempt(&mut self, job: u32, task: u32) {
        let aborted = self.jobs[job as usize].attempts[task as usize];
        let js = &mut self.jobs[job as usize];
        js.attempts[task as usize] += 1;
        // Undo the aborted attempt's locality accounting; a re-execution
        // records its own class when it launches. Tasks with no live
        // attempt (already waiting on a retry) rolled back when killed.
        if js.live_attempts[task as usize] > 0 {
            match js.task_class[task as usize] {
                Locality::NodeLocal => js.node_local -= 1,
                Locality::RackLocal => js.rack_local -= 1,
                Locality::Remote => js.remote -= 1,
            }
        }

        // Cancel every in-flight fetch of this task (the original and any
        // speculative duplicate), refunding surviving runners' slots.
        let mut fetch_fids: Vec<FlowId> = self
            .fetches
            .iter()
            .filter(|(_, f)| f.job == job && f.task == task)
            .map(|(&fid, _)| fid)
            .collect();
        fetch_fids.sort_unstable(); // HashMap order is not deterministic
        for fid in fetch_fids {
            if let Some(f) = self.fetches.remove(&fid) {
                self.cancel_flow(fid, FlowKind::Fetch);
                self.emit(TraceEvent::TaskAborted {
                    job,
                    task,
                    attempt: aborted,
                    node: f.node,
                });
                self.nodes
                    .running_on_mut(f.node as usize)
                    .retain(|&(j, t)| !(j == job && t == task));
                if self.node_up(f.node as usize) {
                    *self.nodes.free_map_mut(f.node as usize) += 1;
                }
            }
        }
        // Attempts in their read/compute phase: clear every registry entry.
        for n in 0..self.nodes.len() {
            // Only nodes running the task are written (and so marked).
            if !self.nodes.running_on(n).contains(&(job, task)) {
                continue;
            }
            let before = self.nodes.running_on(n).len();
            self.nodes.running_on_mut(n).retain(|&(j, t)| !(j == job && t == task));
            let removed = before - self.nodes.running_on(n).len();
            if removed > 0 && self.node_up(n) {
                *self.nodes.free_map_mut(n) += removed as u32;
            }
            for _ in 0..removed {
                self.emit(TraceEvent::TaskAborted {
                    job,
                    task,
                    attempt: aborted,
                    node: n as u32,
                });
            }
        }
        self.jobs[job as usize].live_attempts[task as usize] = 0;
    }

    /// Abort one task attempt (fault path) and schedule a retry — or fail
    /// the whole job once the retry budget is exhausted. `forced_backoff`
    /// delays even the first retry, for failures that would otherwise
    /// respin instantly (e.g. no live fetch source anywhere).
    fn abort_attempt(&mut self, job: u32, task: u32, forced_backoff: bool) {
        self.kill_attempt(job, task);
        let js = &self.jobs[job as usize];
        if js.failed {
            return;
        }
        self.reexecuted_tasks += 1;
        self.stats.tasks_retried += 1;
        let tries = js.attempts[task as usize];
        if tries >= self.cfg.faults.max_task_attempts {
            self.stats.tasks_failed += 1;
            self.fail_job(job);
            return;
        }
        let backoff = self.cfg.faults.retry_backoff_secs;
        let delay_secs = if forced_backoff {
            (backoff * tries as u64).max(1)
        } else if tries <= 1 {
            0 // first failure: immediate re-queue, like a Hadoop TT re-run
        } else {
            backoff * (tries as u64 - 1)
        };
        if delay_secs == 0 {
            self.requeue_now(job, task);
        } else {
            self.events.push(
                self.now + SimDuration::from_secs(delay_secs),
                Ev::TaskRetry {
                    job,
                    task,
                    attempt: tries,
                },
            );
        }
    }

    /// Put the task back in the scheduler's pending set (and the locality
    /// index, under the block's current locations).
    fn requeue_now(&mut self, job: u32, task: u32) {
        let block = self.jobs[job as usize].blocks[task as usize];
        self.emit(TraceEvent::TaskRequeued {
            job,
            task,
            attempt: self.jobs[job as usize].attempts[task as usize],
        });
        self.queue.requeue_task(
            JobId(job),
            TaskId(task),
            block,
            &DfsLookup(&self.dfs),
            self.dfs.topology(),
        );
    }

    fn on_task_retry(&mut self, job: u32, task: u32, attempt: u32) {
        let js = &self.jobs[job as usize];
        if js.failed || js.done[task as usize] || js.attempts[task as usize] != attempt {
            return; // superseded while the backoff timer ran
        }
        self.requeue_now(job, task);
    }

    /// A task exhausted its retry budget: the job fails cleanly. Its
    /// remaining attempts are killed, its pending work leaves the queue,
    /// and a `Failed` outcome is recorded.
    fn fail_job(&mut self, job: u32) {
        let ji = job as usize;
        if self.jobs[ji].failed {
            return;
        }
        self.jobs[ji].failed = true;
        self.stats.jobs_failed += 1;
        for t in 0..self.jobs[ji].blocks.len() {
            if !self.jobs[ji].done[t] && self.jobs[ji].live_attempts[t] > 0 {
                self.kill_attempt(job, t as u32);
            }
        }
        self.queue.abandon_job(JobId(job));
        let js = &self.jobs[ji];
        self.outcomes.push(dare_metrics::JobOutcome {
            id: job,
            status: dare_metrics::JobStatus::Failed,
            arrival: js.arrival,
            completed: self.now,
            maps: js.blocks.len() as u32,
            node_local: js.node_local,
            rack_local: js.rack_local,
            remote: js.remote,
            dedicated: js.dedicated,
        });
        self.finished += 1;
        self.emit(TraceEvent::JobFailed { job });
    }

    /// Injected silent corruption lands: flip the replica's integrity
    /// bit. The namenode, scheduler, and policies see nothing until a
    /// read or a scrub pass checksums the replica.
    fn on_corrupt_replica(&mut self, node: u32, block: u64) {
        let b = BlockId(block);
        if !self.dfs.corrupt_replica(NodeId(node), b) {
            return; // no resident replica: the rot hit unallocated sectors
        }
        self.stats.replicas_corrupted += 1;
        let dynamic = self.dfs.datanode(NodeId(node)).holds_dynamic(b);
        self.emit(TraceEvent::ReplicaCorrupted {
            node,
            block,
            dynamic,
        });
    }

    /// Begin a background scrub pass: measure the resident bytes and
    /// schedule the pass end at the scrub budget's read rate. While the
    /// pass runs, task reads on the node share the remaining bandwidth.
    fn on_scrub_start(&mut self, node: u32, epoch: u32) {
        let ni = node as usize;
        if epoch != self.node_epoch[ni] || !self.node_up(ni) {
            return; // chain superseded by a crash (rejoin restarts it)
        }
        let Some(sc) = self.cfg.scanner else { return };
        let bytes = self.dfs.datanode(NodeId(node)).total_bytes();
        if bytes == 0 {
            // Empty disk: nothing to read, straight to the next pass.
            self.events
                .push(self.now + sc.period, Ev::ScrubStart { node, epoch });
            return;
        }
        self.scrubbing[ni] = true;
        let dur = SimDuration::from_secs_f64(bytes as f64 / sc.bytes_per_sec as f64);
        self.events.push(
            self.now + dur,
            Ev::ScrubDone {
                node,
                epoch,
                pass_bytes: bytes,
            },
        );
    }

    /// A scrub pass finished: every replica corrupt at pass end fails its
    /// checksum and is quarantined — the scanner catches rot that no read
    /// touched. The next pass starts after the configured idle period.
    fn on_scrub_done(&mut self, node: u32, epoch: u32, pass_bytes: u64) {
        let ni = node as usize;
        if epoch != self.node_epoch[ni] || !self.node_up(ni) {
            return; // the node crashed mid-pass
        }
        self.scrubbing[ni] = false;
        self.stats.scrub_bytes += pass_bytes;
        let found = self.dfs.datanode(NodeId(node)).corrupt_blocks();
        self.stats.scrub_detections += found.len() as u64;
        self.emit(TraceEvent::ScrubComplete {
            node,
            bytes: pass_bytes,
            found: found.len() as u32,
        });
        for b in found {
            self.quarantine_and_repair(node, b);
        }
        if let Some(sc) = self.cfg.scanner {
            self.events
                .push(self.now + sc.period, Ev::ScrubStart { node, epoch });
        }
    }

    /// Drop a detected-corrupt replica: remove it from the namenode's
    /// location map and the node's disk, mirror the removal into the
    /// scheduler's locality index, and route primary losses into the
    /// fewest-replicas-first repair queue. A corrupt DARE dynamic replica
    /// is evicted, never repaired — the policy re-creates it on demand.
    fn quarantine_and_repair(&mut self, node: u32, b: BlockId) {
        let Some(q) = self.dfs.quarantine_replica(NodeId(node), b) else {
            return;
        };
        self.stats.replicas_quarantined += 1;
        let (dynamic, was_visible) = match q {
            dare_dfs::Quarantined::Primary { was_visible } => (false, was_visible),
            dare_dfs::Quarantined::Dynamic { was_visible } => (true, was_visible),
        };
        if was_visible {
            self.queue
                .note_replica_removed(b, NodeId(node), self.dfs.topology());
        }
        self.emit(TraceEvent::ReplicaQuarantined {
            node,
            block: b.0,
            dynamic,
        });
        // The quarantined replica may be feeding an in-flight repair.
        // Those bytes were read from a corrupt copy, so the transfer is
        // cancelled rather than committed — found by the model checker
        // as a lost-blocks-unrecoverable violation: the tainted arrival
        // used to resurrect a block already declared lost.
        let mut tainted: Vec<FlowId> = self
            .recovery_flows
            .iter()
            .filter(|(_, r)| r.src == node && r.block == b)
            .map(|(&fid, _)| fid)
            .collect();
        tainted.sort_unstable();
        for fid in tainted {
            if self.recovery_flows.remove(&fid).is_some() {
                self.cancel_flow(fid, FlowKind::Recovery);
            }
        }
        if dynamic {
            // Eviction accounting: the policy forgets the replica so its
            // budget and recency bookkeeping match the disk again.
            self.policies[node as usize].forget(b);
            return;
        }
        self.note_block_under_replicated_cause(b, LossCause::Corruption);
        if self.recovery_queued.contains(&b.0) && !self.repair_started.contains_key(&b.0) {
            self.repair_started.insert(b.0, self.now);
        }
        self.pump_recovery();
    }

    /// A block dropped below its replication factor: queue it for repair,
    /// fewest-replicas-first. A block with no surviving physical copy
    /// anywhere is recorded as lost instead, attributed to `cause`.
    fn note_block_under_replicated(&mut self, b: BlockId) {
        self.note_block_under_replicated_cause(b, LossCause::Crash);
    }

    fn note_block_under_replicated_cause(&mut self, b: BlockId, cause: LossCause) {
        if self.lost_blocks.contains(&b.0) {
            return;
        }
        if self.dfs.physical_copies(b) == 0 {
            self.mark_lost(b);
            match cause {
                LossCause::Crash => self.stats.blocks_lost += 1,
                LossCause::Corruption => self.stats.blocks_lost_corruption += 1,
            }
            self.repair_started.remove(&b.0);
            self.emit(TraceEvent::BlockLost { block: b.0 });
            return;
        }
        if self.cfg.faults.max_recovery_streams == 0 {
            return; // recovery disabled
        }
        let visible = self.dfs.visible_locations(b).len() as u32;
        if visible >= self.cfg.dfs.replication_factor {
            return;
        }
        if self.recovery_queued.insert(b.0) {
            self.recovery_seq += 1;
            self.recovery_q.insert((visible, self.recovery_seq, b.0));
            self.emit(TraceEvent::RecoveryQueued {
                block: b.0,
                visible,
            });
        }
    }

    /// Start re-replication transfers while streams are free, fewest-
    /// replicas blocks first. Recovery shares the flow simulator with map
    /// fetches, so repair traffic contends with job I/O by construction.
    fn pump_recovery(&mut self) {
        let cap = self.cfg.faults.max_recovery_streams;
        while self.recovery_flows.len() < cap {
            let Some((_, _, b0)) = self.recovery_q.pop_first() else {
                break;
            };
            self.recovery_queued.remove(&b0);
            let b = BlockId(b0);
            if self.lost_blocks.contains(&b0) {
                continue;
            }
            let visible = self.dfs.visible_locations(b);
            let visible_at_start = visible.len() as u32;
            // Repairs of this block already in flight count toward RF: a
            // rejoin can re-queue a block whose earlier repairs are still
            // copying, and starting another would over-replicate it.
            let in_flight: Vec<u32> = self
                .recovery_flows
                .values()
                .filter(|r| r.block == b)
                .map(|r| r.dst)
                .collect();
            if visible_at_start + in_flight.len() as u32 >= self.cfg.dfs.replication_factor
                && !self.cfg.seeded_bug_skip_heal_recheck
            {
                continue; // healed by another path (e.g. a rejoin) meanwhile
            }
            let srcs: Vec<NodeId> = visible
                .iter()
                .copied()
                .filter(|s| self.node_up(s.idx()))
                .collect();
            if srcs.is_empty() {
                // No live source right now. The block is re-enqueued by
                // the holder's block report if it rejoins, or declared
                // lost when the last holder's disk turns out to be gone.
                continue;
            }
            let dsts = self.repair_targets(b, &in_flight);
            if dsts.is_empty() {
                continue;
            }
            let src = srcs[self.recovery_rng.index(srcs.len())];
            let dst = dsts[self.recovery_rng.index(dsts.len())];
            let bytes = self.dfs.namenode().block_size(b);
            let cross = self.dfs.topology().crosses_racks(src, dst);
            let fid = self.flows.start(self.now, src, dst, bytes, cross);
            self.emit(TraceEvent::FlowStarted {
                flow: fid.0,
                kind: FlowKind::Recovery,
                src: src.0,
                dst: dst.0,
                bytes,
                cross_rack: cross,
                ctx: FlowCtx::Block { block: b.0 },
            });
            self.start_recovery_xfer(
                fid,
                RecoveryXfer {
                    block: b,
                    src: src.0,
                    dst: dst.0,
                    visible_at_start,
                },
            );
        }
        self.schedule_netcheck();
    }

    /// The live nodes a repair of `b` may copy to, ascending: no replica
    /// of `b` on disk and no repair of it already copying there
    /// (`in_flight`). The visible locations and the down nodes account
    /// for every copy unless some up node holds a dynamic replica not
    /// yet reported; only then is each candidate's disk looked up.
    fn repair_targets(&self, b: BlockId, in_flight: &[u32]) -> Vec<NodeId> {
        let held: Vec<NodeId> = self
            .dfs
            .visible_locations(b)
            .iter()
            .copied()
            .filter(|&v| self.node_up(v.idx()) && self.dfs.is_physically_present(v, b))
            .collect();
        let mut found = held.len() as u32;
        let mut dsts = Vec::new();
        for i in 0..self.nodes.len() as u32 {
            let node = NodeId(i);
            if !self.node_up(i as usize) {
                found += self.dfs.is_physically_present(node, b) as u32;
            } else if !held.contains(&node) && !in_flight.contains(&i) {
                dsts.push(node);
            }
        }
        if found < self.dfs.physical_copies(b) {
            dsts.retain(|&n| !self.dfs.is_physically_present(n, b));
        }
        dsts
    }

    /// A re-replication transfer finished: commit the new replica, make
    /// it visible to the scheduler, and keep pumping.
    fn on_recovery_done(&mut self, rx: RecoveryXfer) {
        let b = rx.block;
        if !self.node_up(rx.dst as usize)
            || self.dfs.is_physically_present(NodeId(rx.dst), b)
            || self.lost_blocks.contains(&b.0)
        {
            // Target died mid-flight (flow races the cancel), the bytes
            // arrived by another path, or the block was declared lost
            // while the transfer ran (its source must have been corrupt
            // or wiped, so the payload is not trustworthy): drop the
            // transfer on the floor.
            self.pump_recovery();
            return;
        }
        // The payload is only trustworthy if the source still holds a
        // healthy copy. Source quarantined in the same completion batch
        // (detection races the transfer to the very same instant): the
        // bytes came off a corrupt replica — drop and re-queue.
        if !self.dfs.is_physically_present(NodeId(rx.src), b) {
            self.note_block_under_replicated(b);
            self.pump_recovery();
            return;
        }
        // Read-path verification, recovery flavor: copying the block is a
        // read of its bytes, so a silently corrupt source fails the
        // checksum here exactly like a remote map fetch would. Detect,
        // quarantine the source, drop the payload, re-queue the repair.
        if self.dfs.is_replica_corrupt(NodeId(rx.src), b) {
            self.stats.checksum_failures += 1;
            self.quarantine_and_repair(rx.src, b);
            self.note_block_under_replicated(b);
            self.pump_recovery();
            return;
        }
        self.dfs.add_replica(b, NodeId(rx.dst));
        self.queue
            .note_replica_added(b, NodeId(rx.dst), self.dfs.topology());
        self.stats.blocks_re_replicated += 1;
        self.stats.recovery_bytes += self.dfs.namenode().block_size(b);
        // Quarantine-initiated repair: commit the time-to-repair clock.
        if let Some(t0) = self.repair_started.remove(&b.0) {
            let wait_us = self.now.saturating_since(t0).as_micros();
            self.emit(TraceEvent::RepairCommit {
                block: b.0,
                node: rx.dst,
                wait_us,
            });
            if let Some(w) = self.telem.as_mut().and_then(|t| t.repair_time.as_mut()) {
                w.push(wait_us as f64 / 1e6);
            }
        }
        self.note_block_under_replicated(b); // still short? go again
        self.pump_recovery();
    }

    /// End-of-run invariants: every job reached a terminal state with
    /// consistent counters.
    fn check_terminal_invariants(&self) -> Result<(), crate::SimError> {
        use dare_simcore::check::InvariantId as Inv;
        let mut inv = dare_simcore::check::Invariants::new();
        for (j, js) in self.jobs.iter().enumerate() {
            if js.failed {
                continue;
            }
            inv.check_id(
                Inv::TerminalCompleteness,
                js.maps_done as usize == js.blocks.len(),
                || {
                    format!(
                        "job {j} finished with {}/{} maps done",
                        js.maps_done,
                        js.blocks.len()
                    )
                },
            );
            inv.check_id(Inv::TerminalCompleteness, js.reduces_done == js.reduces, || {
                format!(
                    "job {j} finished with {}/{} reduces done",
                    js.reduces_done, js.reduces
                )
            });
            inv.check_id(
                Inv::LocalityPartition,
                js.node_local + js.rack_local + js.remote == js.blocks.len() as u32,
                || format!("job {j}: locality classes don't partition its maps"),
            );
        }
        inv.into_result().map_err(crate::SimError::InvariantViolation)
    }

    /// Epoch boundary of the proactive baseline: re-derive desired extra
    /// replica counts from the epoch's accesses, push missing replicas over
    /// the network, and age out replicas of files that cooled down.
    fn on_epoch(&mut self) {
        let Some(mut sc) = self.scarlett.take() else {
            return;
        };
        sc.close_epoch();
        let num_files = self.dfs.namenode().num_files();
        for fi in 0..num_files {
            let file = dare_dfs::FileId(fi as u32);
            let desired = sc.desired_for(file);
            let blocks = self.dfs.namenode().file(file).blocks.clone();
            for b in blocks {
                self.reconcile_block(&mut sc, b, desired);
            }
        }
        self.events.push(self.now + sc.cfg.epoch, Ev::Epoch);
        self.scarlett = Some(sc);
        self.schedule_netcheck();
    }

    /// Bring one block's dynamic-replica count toward `desired`: push
    /// missing copies to the least-loaded nodes with budget headroom, or
    /// evict surplus copies from the most-loaded ones.
    fn reconcile_block(&mut self, sc: &mut ScarlettState, b: BlockId, desired: u32) {
        let bytes = self.dfs.namenode().block_size(b);
        let n = self.dfs.datanodes().len();
        let holders: Vec<u32> = (0..n as u32)
            .filter(|&i| self.dfs.datanode(NodeId(i)).holds_dynamic(b))
            .collect();
        let inflight_for_block = self
            .proactive_flows
            .values()
            .filter(|t| t.block == b)
            .count() as u32;
        let current = holders.len() as u32 + inflight_for_block;

        if current < desired {
            // Targets: nodes without the block, enough budget headroom,
            // least dynamic bytes first (load smoothing).
            let mut candidates: Vec<(u64, u32)> = (0..n as u32)
                .filter(|&i| {
                    let node = NodeId(i);
                    !self.dfs.is_physically_present(node, b)
                        && self.dfs.datanode(node).dynamic_bytes()
                            + self.inflight_proactive[i as usize]
                            + bytes
                            <= self.budget_bytes
                })
                .map(|i| {
                    (
                        self.dfs.datanode(NodeId(i)).dynamic_bytes()
                            + self.inflight_proactive[i as usize],
                        i,
                    )
                })
                .collect();
            candidates.sort_unstable();
            for &(_, dst) in candidates.iter().take((desired - current) as usize) {
                let Some(src) = self.pick_source(b, NodeId(dst)) else {
                    continue; // no live replica to push from right now
                };
                let cross = self.dfs.topology().crosses_racks(src, NodeId(dst));
                let fid = self.flows.start(self.now, src, NodeId(dst), bytes, cross);
                self.emit(TraceEvent::FlowStarted {
                    flow: fid.0,
                    kind: FlowKind::Proactive,
                    src: src.0,
                    dst,
                    bytes,
                    cross_rack: cross,
                    ctx: FlowCtx::Block { block: b.0 },
                });
                self.proactive_flows
                    .insert(fid, ProactiveTransfer { block: b, src: src.0, dst });
                self.inflight_proactive[dst as usize] += bytes;
                sc.bytes_moved += bytes;
            }
        } else if current > desired {
            // Age out surplus replicas from the most-loaded holders.
            let mut by_load: Vec<(u64, u32)> = holders
                .iter()
                .map(|&i| (self.dfs.datanode(NodeId(i)).dynamic_bytes(), i))
                .collect();
            by_load.sort_unstable_by(|a, b| b.cmp(a));
            let surplus = (holders.len() as u32).saturating_sub(desired) as usize;
            for &(_, node) in by_load.iter().take(surplus) {
                if let Some(visible) = self.dfs.evict_dynamic(NodeId(node), b) {
                    sc.evictions += 1;
                    if visible {
                        self.queue
                            .note_replica_removed(b, NodeId(node), self.dfs.topology());
                    }
                }
            }
        }
    }

    /// A proactive push finished: commit the replica.
    fn on_proactive_done(&mut self, pt: ProactiveTransfer) {
        let bytes = self.dfs.namenode().block_size(pt.block);
        self.inflight_proactive[pt.dst as usize] =
            self.inflight_proactive[pt.dst as usize].saturating_sub(bytes);
        if self.dfs.insert_dynamic(self.now, NodeId(pt.dst), pt.block) {
            if let Some(sc) = self.scarlett.as_mut() {
                sc.replicas_created += 1;
            }
            self.emit(TraceEvent::ReplicaCommitted {
                node: pt.dst,
                block: pt.block.0,
            });
        }
    }

    fn finish(mut self) -> SimResult {
        let trace = self.tracer.take();
        let telemetry = self.telem.take().map(|t| t.out);
        let profile = self.profiler.take().map(|mut p| {
            p.note_slab_peak(self.flows.peak_active() as u64);
            p.finish()
        });
        let dfs_fingerprint = self.dfs.replica_fingerprint();
        self.outcomes.sort_by_key(|o| o.id);
        let run = dare_metrics::summarize(&self.outcomes);
        let mut replicas_created = 0;
        let mut evictions = 0;
        let mut skipped_by_sampling = 0;
        let mut skipped_no_victim = 0;
        for p in &self.policies {
            let s = p.stats();
            replicas_created += s.replicas_created;
            evictions += s.evictions;
            skipped_by_sampling += s.skipped_by_sampling;
            skipped_no_victim += s.skipped_no_victim;
        }
        let cv_after = popularity_cv_of(&self.dfs, &self.file_popularity);
        let proactive = self.scarlett.as_ref().map(|sc| ProactiveStats {
            bytes_moved: sc.bytes_moved,
            replicas_created: sc.replicas_created,
            evictions: sc.evictions,
        });
        let _ = &self.workload_name;
        SimResult {
            blocks_per_job: dare_metrics::blocks_created_per_job(
                replicas_created,
                self.outcomes.len(),
            ),
            run,
            outcomes: self.outcomes,
            replicas_created,
            evictions,
            skipped_by_sampling,
            skipped_no_victim,
            cv_before: self.cv_before,
            cv_after,
            final_dynamic_bytes: self.dfs.total_dynamic_bytes(),
            remote_bytes_fetched: self.remote_bytes_fetched,
            proactive,
            reexecuted_tasks: self.reexecuted_tasks,
            speculative_launches: self.speculative_launches,
            speculative_wins: self.speculative_wins,
            faults: self.stats,
            trace,
            telemetry,
            profile,
            logical_events: self.logical_events,
            sched_offers: self.sched_offers,
            sched_probes: self.queue.probes(),
            flow_rerates: self.flows.rerates(),
            dfs_fingerprint,
        }
    }
}

/// Modeled shuffle + reduce duration: each of the `reduces` reducers pulls
/// its share of the job's output over the fabric (at roughly half the mean
/// NIC rate, reflecting the many-to-many shuffle), spends half a map's
/// compute merging it, then commits its partition through an HDFS write
/// pipeline whose steady-state rate is the min of mean disk and NIC rates
/// (the replication chain re-sends the bytes `replication - 1` times
/// through NICs of that rate).
fn reduce_duration(
    output_bytes: u64,
    reduces: u32,
    map_compute: SimDuration,
    net_mean_mbps: f64,
    disk_mean_mbps: f64,
    replication: u32,
) -> SimDuration {
    let per_reducer = output_bytes as f64 / reduces.max(1) as f64;
    let shuffle_secs = per_reducer / (net_mean_mbps * 0.5 * MB as f64);
    // First replica is a local write; each further replica adds a network
    // hop, so the chain rate is min(disk, nic) and hops are pipelined —
    // duration stays bytes/chain_rate regardless of replica count >= 2.
    let chain_rate = if replication <= 1 {
        disk_mean_mbps
    } else {
        disk_mean_mbps.min(net_mean_mbps)
    };
    let write_secs = per_reducer / (chain_rate * MB as f64);
    SimDuration::from_secs_f64(shuffle_secs + write_secs) + map_compute.mul_f64(0.5)
}

/// Fig. 11's uniformity score over the current DFS placement.
fn popularity_cv_of(dfs: &Dfs, file_popularity: &[f64]) -> f64 {
    let per_node: Vec<Vec<(u64, f64)>> = dfs
        .datanodes()
        .iter()
        .map(|dn| {
            dn.all_blocks()
                .into_iter()
                .map(|b| {
                    let meta = dfs.namenode().block(b);
                    (meta.size_bytes, file_popularity[meta.file.idx()])
                })
                .collect()
        })
        .collect();
    dare_metrics::popularity_cv(&per_node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use dare_core::PolicyKind;
    use dare_workload::{FileSpec, JobSpec};
    use std::collections::HashMap;

    /// A small deterministic workload: `files` files of `blocks` blocks,
    /// `jobs` jobs hammering file 0 mostly (high skew).
    fn tiny_workload(files: usize, blocks: u64, jobs: u32) -> Workload {
        let bs = 128 * MB;
        let file_specs: Vec<FileSpec> = (0..files)
            .map(|i| FileSpec {
                name: format!("f{i}"),
                size_bytes: blocks * bs,
            })
            .collect();
        let job_specs: Vec<JobSpec> = (0..jobs)
            .map(|id| JobSpec {
                id,
                arrival: SimTime::from_secs(id as u64 * 10),
                file: if id % 4 == 0 { (id as usize / 4) % files } else { 0 },
                map_compute: SimDuration::from_secs(20),
                reduces: 1,
                output_bytes: 10 * MB,
            })
            .collect();
        Workload {
            name: "tiny".into(),
            files: file_specs,
            jobs: job_specs,
        }
    }

    fn run_cfg(policy: PolicyKind, sched: SchedulerKind, seed: u64) -> SimResult {
        let mut cfg = SimConfig::cct(policy, sched, seed);
        // The test dataset is tiny (24 blocks over 19 nodes); at the paper's
        // 0.2 budget a node's budget would be smaller than one block, so use
        // a full-share budget to exercise the replication paths.
        cfg.budget_frac = 1.0;
        crate::run(cfg, &tiny_workload(8, 3, 40))
    }

    #[test]
    fn all_jobs_complete_and_metrics_sane() {
        let r = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
        assert_eq!(r.run.jobs, 40);
        assert_eq!(r.run.maps, 120);
        assert!((0.0..=1.0).contains(&r.run.locality));
        assert!(r.run.gmtt_secs > 0.0);
        assert!(r.run.mean_slowdown >= 0.99, "slowdown {}", r.run.mean_slowdown);
        assert!(r.run.makespan_secs > 0.0);
        // locality counters per job sum to maps
        for o in &r.outcomes {
            assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
        }
    }

    #[test]
    fn vanilla_creates_no_replicas() {
        let r = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 2);
        assert_eq!(r.replicas_created, 0);
        assert_eq!(r.final_dynamic_bytes, 0);
        assert_eq!(r.blocks_per_job, 0.0);
    }

    #[test]
    fn greedy_replicates_and_improves_locality() {
        let v = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 3);
        let d = run_cfg(PolicyKind::GreedyLru, SchedulerKind::Fifo, 3);
        assert!(d.replicas_created > 0, "greedy must replicate");
        assert!(
            d.run.locality > v.run.locality + 0.1,
            "DARE {} vs vanilla {}",
            d.run.locality,
            v.run.locality
        );
    }

    #[test]
    fn elephant_trap_replicates_less_than_greedy() {
        let g = run_cfg(PolicyKind::GreedyLru, SchedulerKind::Fifo, 4);
        let e = run_cfg(
            PolicyKind::ElephantTrap { p: 0.3, threshold: 1 },
            SchedulerKind::Fifo,
            4,
        );
        assert!(e.replicas_created > 0);
        assert!(
            e.replicas_created < g.replicas_created,
            "sampling cuts writes: et={} lru={}",
            e.replicas_created,
            g.replicas_created
        );
    }

    #[test]
    fn fair_scheduler_beats_fifo_locality_on_vanilla() {
        let f = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 5);
        let d = run_cfg(PolicyKind::Vanilla, SchedulerKind::fair_default(), 5);
        assert!(
            d.run.locality > f.run.locality,
            "delay scheduling helps: fair={} fifo={}",
            d.run.locality,
            f.run.locality
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_cfg(PolicyKind::elephant_default(), SchedulerKind::Fifo, 7);
        let b = run_cfg(PolicyKind::elephant_default(), SchedulerKind::Fifo, 7);
        assert_eq!(a.run.locality, b.run.locality);
        assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
        assert_eq!(a.replicas_created, b.replicas_created);
        let c = run_cfg(PolicyKind::elephant_default(), SchedulerKind::Fifo, 8);
        assert!(
            a.run.gmtt_secs != c.run.gmtt_secs || a.replicas_created != c.replicas_created,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn scheduler_work_counters_repeat_per_seed() {
        for sched in [SchedulerKind::Fifo, SchedulerKind::fair_default()] {
            let a = run_cfg(PolicyKind::GreedyLru, sched, 11);
            let b = run_cfg(PolicyKind::GreedyLru, sched, 11);
            assert_eq!(a.sched_offers, b.sched_offers, "{sched:?}: offers");
            assert_eq!(a.sched_probes, b.sched_probes, "{sched:?}: probes");
            assert_eq!(a.flow_rerates, b.flow_rerates, "{sched:?}: flow re-rates");
            assert!(a.flow_rerates > 0, "{sched:?}: remote reads re-rate flows");
            // Every launched map was one accepted offer and one probe.
            assert!(a.sched_offers >= a.run.maps, "{sched:?}");
            assert!(a.sched_probes >= a.run.maps, "{sched:?}");
        }
    }

    #[test]
    fn ec2_profile_runs() {
        let cfg = SimConfig::ec2(PolicyKind::elephant_default(), SchedulerKind::Fifo, 9);
        let r = crate::run(cfg, &tiny_workload(8, 3, 20));
        assert_eq!(r.run.jobs, 20);
        assert!((0.0..=1.0).contains(&r.run.locality));
    }

    #[test]
    fn turnaround_improves_with_replication_under_load() {
        // Heavier load so remote-read contention matters.
        let w = tiny_workload(6, 4, 60);
        let v = crate::run(
            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 10),
            &w,
        );
        let d = crate::run(
            SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 10),
            &w,
        );
        assert!(
            d.run.gmtt_secs <= v.run.gmtt_secs * 1.02,
            "replication shouldn't hurt turnaround: dare {} vanilla {}",
            d.run.gmtt_secs,
            v.run.gmtt_secs
        );
    }

    #[test]
    fn node_failures_reexecute_tasks_and_finish_all_jobs() {
        let wl = tiny_workload(8, 3, 40);
        // Fail three nodes while the trace is in full swing.
        let cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 31)
            .with_failures(vec![(40, 2), (90, 7), (150, 11)]);
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs, 40, "every job completes despite failures");
        for o in &r.outcomes {
            assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
        }
        assert!((0.0..=1.0).contains(&r.run.locality));
    }

    #[test]
    fn failures_are_deterministic_too() {
        let wl = tiny_workload(8, 3, 30);
        let run = || {
            let cfg = SimConfig::cct(
                PolicyKind::elephant_default(),
                SchedulerKind::fair_default(),
                77,
            )
            .with_failures(vec![(30, 0), (60, 5)]);
            crate::run(cfg, &wl)
        };
        let a = run();
        let b = run();
        assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
        assert_eq!(a.replicas_created, b.replicas_created);
    }

    #[test]
    fn failed_node_serves_no_further_tasks() {
        use dare_trace::{find_first, task_spans, TraceEvent};
        let wl = tiny_workload(6, 2, 30);
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 13)
            .with_failures(vec![(1, 4)]);
        cfg.record_trace = true;
        let crash = SimTime::from_secs(1);
        let declare_at = crash
            + cfg
                .heartbeat
                .mul_f64(cfg.faults.detect_heartbeats as f64);
        let r = crate::run(cfg, &wl);
        assert_eq!(r.faults.nodes_declared_dead, 1);

        let trace = r.trace.expect("tracing was on");
        // The silent node never picks up NEW work after the crash...
        let late_launch = find_first(&trace, |rec| {
            matches!(rec.event, TraceEvent::TaskLaunched { node: 4, .. }) && rec.time > crash
        });
        assert!(
            late_launch.is_none(),
            "crashed node must not take new tasks: {late_launch:?}"
        );
        // ...zombie attempts linger between the crash and the declaration,
        // but every node-4 span is closed by the declaration at the latest.
        // (The t=1s crash may land before node 4's first staggered
        // heartbeat, in which case it never launched anything and the loop
        // below is vacuous — the no-new-work check above still bites.)
        let spans = task_spans(&trace);
        let on_victim: Vec<_> = spans.iter().filter(|s| s.node == 4).collect();
        for s in &on_victim {
            let end = s.end.unwrap_or_else(|| {
                panic!("node-4 attempt left open past declare-dead: {s:?}")
            });
            assert!(
                end <= declare_at,
                "declared-dead node must hold no attempts: {s:?} ends after {declare_at:?}"
            );
        }
        assert!(r.reexecuted_tasks <= wl.jobs.len() as u64 * 3);
    }

    #[test]
    fn detection_waits_for_the_heartbeat_timeout() {
        use dare_trace::{assert_event_order, TraceEvent};
        let wl = tiny_workload(6, 2, 30);
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 19)
            .with_failures(vec![(5, 2)]);
        cfg.record_trace = true;
        let crash = SimTime::from_secs(5);
        let declare_at = crash
            + cfg
                .heartbeat
                .mul_f64(cfg.faults.detect_heartbeats as f64);
        let r = crate::run(cfg, &wl);
        assert_eq!(r.faults.nodes_declared_dead, 1);

        let trace = r.trace.expect("tracing was on");
        let matched = assert_event_order(
            &trace,
            &[
                ("crash", &|rec| {
                    matches!(rec.event, TraceEvent::NodeCrashed { node: 2, .. })
                }),
                ("declared-dead", &|rec| {
                    matches!(rec.event, TraceEvent::NodeDeclaredDead { node: 2, .. })
                }),
            ],
        );
        assert_eq!(matched[0].time, crash);
        assert_eq!(
            matched[1].time, declare_at,
            "no omniscient namenode: death declared exactly at the missed-heartbeat timeout"
        );
    }

    #[test]
    fn transient_crash_rejoins_and_loses_nothing() {
        let wl = tiny_workload(8, 3, 40);
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 91)
            .with_invariant_checks();
        cfg.budget_frac = 1.0;
        // Down for 120s: well past the 30s detection timeout, so the full
        // declare -> re-replicate -> rejoin -> block-report cycle runs.
        cfg.faults.events.push(crate::FaultEvent::Crash {
            at_secs: 30,
            node: 3,
            down_secs: 120,
        });
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
        assert_eq!(r.faults.nodes_declared_dead, 1);
        assert_eq!(r.faults.nodes_rejoined, 1);
        assert_eq!(r.faults.blocks_lost, 0, "a transient crash loses no data");
    }

    #[test]
    fn permanent_kill_re_replicates_through_the_network() {
        let wl = tiny_workload(8, 3, 40);
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 92)
            .with_failures(vec![(40, 6)])
            .with_invariant_checks();
        cfg.faults.detect_heartbeats = 3; // declare quickly so repair runs mid-trace
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
        assert!(
            r.faults.blocks_re_replicated > 0,
            "the killed node's blocks must be repaired"
        );
        assert!(r.faults.recovery_bytes > 0, "repair moves real bytes");
        assert_eq!(r.faults.blocks_lost, 0, "rf=3 survives one kill");
    }

    #[test]
    fn recovery_traffic_contends_with_map_fetches() {
        // Heavily loaded cluster so fetches are in flight when recovery
        // starts; identical seeds, recovery on vs off. Runs are identical
        // up to the declaration instant, so attempts launched before it
        // pair exactly — and some of their reads must finish strictly
        // later once repair traffic shares the fabric.
        let bs = 128 * MB;
        let files: Vec<FileSpec> = (0..8)
            .map(|i| FileSpec {
                name: format!("f{i}"),
                size_bytes: 3 * bs,
            })
            .collect();
        let jobs: Vec<JobSpec> = (0..60u32)
            .map(|id| JobSpec {
                id,
                arrival: SimTime::from_secs(id as u64),
                file: if id % 4 == 0 { (id as usize / 4) % 8 } else { 0 },
                map_compute: SimDuration::from_secs(20),
                reduces: 1,
                output_bytes: 10 * MB,
            })
            .collect();
        let wl = Workload {
            name: "contention".into(),
            files,
            jobs,
        };
        let run_with = |streams: usize| {
            let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 93)
                .with_failures(vec![(40, 5)]);
            cfg.record_trace = true;
            cfg.faults.max_recovery_streams = streams;
            // Declare quickly: the repair burst lands while the backlogged
            // cluster still has map fetches in flight.
            cfg.faults.detect_heartbeats = 2;
            crate::run(cfg, &wl)
        };
        let quiet = run_with(0);
        let noisy = run_with(6);
        assert_eq!(quiet.faults.blocks_re_replicated, 0);
        assert!(noisy.faults.blocks_re_replicated > 0);
        assert!(noisy.faults.recovery_bytes > 0);

        let quiet_trace = quiet.trace.expect("tracing was on");
        let noisy_trace = noisy.trace.expect("tracing was on");
        let fetches = |spans: &[dare_trace::FlowSpan]| -> Vec<dare_trace::FlowSpan> {
            spans
                .iter()
                .filter(|s| s.kind == dare_trace::FlowKind::Fetch)
                .cloned()
                .collect()
        };
        let quiet_spans = dare_trace::flow_spans(&quiet_trace);
        let noisy_spans = dare_trace::flow_spans(&noisy_trace);

        // Fetch flows launched before the declaration pair exactly across
        // the two runs (same seed, recovery is the only difference), so
        // "same fetch, later finish" is the contention signal.
        let key = |s: &dare_trace::FlowSpan| (s.ctx, s.dst, s.bytes, s.start);
        let quiet_ends: HashMap<_, _> = fetches(&quiet_spans)
            .iter()
            .map(|s| (key(s), s.end))
            .collect();
        let mut delayed = 0u32;
        for s in fetches(&noisy_spans) {
            if let (Some(Some(q)), Some(n)) = (quiet_ends.get(&key(&s)), s.end) {
                if n > *q {
                    delayed += 1;
                }
            }
        }
        assert!(
            delayed > 0,
            "re-replication must measurably delay at least one remote map fetch"
        );

        // And the contention is visible as spans: at least one recovery
        // flow shares the fabric with an in-flight map fetch.
        let overlapping = noisy_spans
            .iter()
            .filter(|r| r.kind == dare_trace::FlowKind::Recovery)
            .any(|r| fetches(&noisy_spans).iter().any(|f| r.overlaps(f)));
        assert!(
            overlapping,
            "a recovery flow must overlap a map fetch in the noisy run"
        );
    }

    #[test]
    fn losing_every_replica_fails_jobs_cleanly() {
        let wl = tiny_workload(8, 3, 40);
        // rf=1 scatters 24 single-copy blocks; find a node that actually
        // holds file-0 blocks (placement is seed-deterministic, so the
        // probe run and the real run place identically).
        let mut probe_cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 94);
        probe_cfg.dfs.replication_factor = 1;
        let probe = Engine::new(probe_cfg, &wl);
        let victim = (0..19u32)
            .find(|&i| !probe.dfs.datanode(NodeId(i)).all_blocks().is_empty())
            .expect("some node holds blocks");
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 94)
            .with_failures(vec![(25, victim)])
            .with_invariant_checks();
        cfg.dfs.replication_factor = 1; // every block single-copy
        let r = crate::run(cfg, &wl);
        assert!(r.faults.blocks_lost > 0, "rf=1 kill must lose blocks");
        assert!(r.faults.jobs_failed > 0, "jobs on lost blocks must fail");
        assert!(r.faults.tasks_failed > 0);
        assert_eq!(r.run.failed_jobs as u64, r.faults.jobs_failed);
        assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
        for o in r.outcomes.iter().filter(|o| o.status == dare_metrics::JobStatus::Failed) {
            assert!(o.completed >= o.arrival);
        }
    }

    #[test]
    fn generated_fault_plans_run_deterministically() {
        let wl = tiny_workload(8, 3, 30);
        let run = || {
            let spec = crate::FaultSpec {
                horizon_secs: 200,
                kills: 1,
                crashes: 2,
                mean_down_secs: 60,
                rack_outages: 1,
                stragglers: 1,
                straggler_factor: 3.0,
                corruption_rate_per_node_hour: 0.0,
            };
            let cfg = SimConfig::ec2(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 95);
            let plan = crate::FaultPlan::generate_valid(&spec, &cfg.topology(), 0, 0xFA57);
            let cfg = cfg.with_faults(plan).with_invariant_checks();
            crate::run(cfg, &wl)
        };
        let a = run();
        let b = run();
        assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
        assert_eq!(a.run.jobs, b.run.jobs);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.reexecuted_tasks, b.reexecuted_tasks);
    }

    #[test]
    fn failure_with_scarlett_stays_consistent() {
        let wl = tiny_workload(8, 3, 40);
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 15)
            .with_scarlett(crate::scarlett::ScarlettConfig {
                epoch: SimDuration::from_secs(30),
                accesses_per_replica: 2.0,
                max_extra_replicas: 8,
            })
            .with_failures(vec![(45, 3), (100, 9)]);
        cfg.budget_frac = 1.0;
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs, 40);
        assert!(r.proactive.expect("scarlett ran").replicas_created > 0);
    }

    #[test]
    fn degraded_node_slows_and_speculation_rescues() {
        let wl = tiny_workload(8, 3, 40);
        // Node 3 limps at 8x from t=10s.
        let degraded = crate::run(
            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 51)
                .with_degradations(vec![(10, 3, 8.0)]),
            &wl,
        );
        let healthy = crate::run(
            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 51),
            &wl,
        );
        assert!(
            degraded.run.gmtt_secs > healthy.run.gmtt_secs * 1.02,
            "limplock must hurt: degraded {} healthy {}",
            degraded.run.gmtt_secs,
            healthy.run.gmtt_secs
        );
        // Speculation claws most of it back.
        let rescued = crate::run(
            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 51)
                .with_degradations(vec![(10, 3, 8.0)])
                .with_speculation(crate::config::SpeculationConfig {
                    slowdown_factor: 1.5,
                    min_elapsed_secs: 3.0,
                }),
            &wl,
        );
        assert!(rescued.speculative_launches > 0);
        assert!(
            rescued.run.gmtt_secs < degraded.run.gmtt_secs,
            "speculation helps: rescued {} degraded {}",
            rescued.run.gmtt_secs,
            degraded.run.gmtt_secs
        );
    }

    #[test]
    fn build_rejects_a_rack_outage_overlapping_a_member_crash() {
        // A crash inside a rack outage's window on a member node has no
        // defined epoch order; the engine rejects it against the
        // topology it builds (CCT: one rack holding every node).
        let wl = tiny_workload(2, 2, 4);
        let overlap = crate::FaultPlan {
            events: vec![
                crate::FaultEvent::RackOutage { at_secs: 20, rack: 0, down_secs: 30 },
                crate::FaultEvent::Crash { at_secs: 30, node: 2, down_secs: 5 },
            ],
            ..crate::FaultPlan::default()
        };
        let cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
        assert!(overlap.validate(cfg.profile.nodes).is_ok(), "node-only checks pass");
        let err = Engine::try_new(cfg.clone().with_faults(overlap.clone()), &wl)
            .err()
            .expect("overlap rejected");
        assert!(err.to_string().contains("overlapping"), "got: {err}");
        // The crash after the outage heals is fine.
        let mut later = overlap;
        later.events[1] = crate::FaultEvent::Crash { at_secs: 60, node: 2, down_secs: 5 };
        assert!(Engine::try_new(cfg.with_faults(later), &wl).is_ok());
    }

    #[test]
    fn try_new_rejects_invalid_scheduler_parameters() {
        // Zero capacity queues, and a rack threshold above the any
        // threshold: both are config errors, not scheduler panics.
        let wl = tiny_workload(2, 2, 4);
        for (kind, what) in [
            (SchedulerKind::Capacity(0), "queue"),
            (SchedulerKind::Fair(dare_sched::FairConfig { d1: 5, d2: 1 }), "d1 = 5"),
        ] {
            let cfg = SimConfig::cct(PolicyKind::Vanilla, kind, 1);
            match Engine::try_new(cfg, &wl) {
                Err(crate::SimError::InvalidInput(msg)) => {
                    assert!(msg.contains(what), "{kind:?}: got {msg}")
                }
                Err(e) => panic!("{kind:?}: wrong error {e}"),
                Ok(_) => panic!("{kind:?}: accepted"),
            }
        }
    }

    #[test]
    fn degradation_rejects_bad_factor() {
        let cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1)
            .with_degradations(vec![(10, 0, 0.5)]);
        assert!(cfg.validate().is_err(), "factor < 1 must be rejected");
    }

    #[test]
    fn speculation_launches_backups_on_straggling_cluster() {
        // EC2 profile: per-node disk bandwidth varies 67-358 MB/s, so slow
        // nodes straggle and speculation fires.
        let wl = tiny_workload(8, 4, 40);
        let cfg = SimConfig::ec2(PolicyKind::Vanilla, SchedulerKind::Fifo, 42)
            .with_speculation(crate::config::SpeculationConfig {
                slowdown_factor: 1.2,
                min_elapsed_secs: 2.0,
            });
        let mut engine = Engine::new(cfg, &wl);
        let total = engine.jobs.len();
        while engine.finished < total {
            let (t, ev) = engine.events.pop().expect("events pending");
            engine.now = t;
            engine.dispatch(ev).unwrap();
        }
        assert!(
            engine.speculative_launches > 0,
            "heterogeneous disks must trigger backups"
        );
        // Slots never leak: every node ends with its full slot count.
        for i in 0..engine.nodes.len() {
            assert_eq!(
                engine.nodes.free_map(i),
                engine.cfg.profile.map_slots_per_node,
                "node {i} leaked slots"
            );
        }
    }

    #[test]
    fn speculation_does_not_change_job_counts_or_violate_invariants() {
        let wl = tiny_workload(6, 3, 30);
        let base = crate::run(
            SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 43),
            &wl,
        );
        let spec = crate::run(
            SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 43)
                .with_speculation(Default::default()),
            &wl,
        );
        assert_eq!(base.run.jobs, spec.run.jobs);
        for o in &spec.outcomes {
            assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
        }
        // Backups can only help or match turnaround on a deterministic rig.
        assert!(spec.run.gmtt_secs <= base.run.gmtt_secs * 1.10);
    }

    #[test]
    fn speculation_with_failures_is_stable() {
        let wl = tiny_workload(8, 3, 40);
        let cfg = SimConfig::ec2(PolicyKind::elephant_default(), SchedulerKind::fair_default(), 47)
            .with_speculation(Default::default())
            .with_failures(vec![(30, 1), (70, 8), (110, 42)]);
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs, 40);
        for o in &r.outcomes {
            assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
        }
    }

    #[test]
    fn task_spans_cover_every_attempt_with_monotone_milestones() {
        use dare_trace::{task_spans, Loc};
        let wl = tiny_workload(8, 3, 30);
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 61);
        cfg.record_trace = true;
        let r = crate::run(cfg, &wl);
        let spans = task_spans(r.trace.as_ref().expect("tracing was on"));
        // No failures/speculation: exactly one attempt per map task.
        assert_eq!(spans.len() as u64, r.run.maps);
        for s in &spans {
            assert!(!s.speculative);
            assert_eq!(s.attempt, 0);
            assert!(s.committed, "attempt completed: {s:?}");
            let read = s.read_done.expect("attempt finished its read");
            let end = s.end.expect("attempt closed");
            assert!(s.start <= read && read <= end);
        }
        // Node-local spans match the locality metric.
        let local = spans.iter().filter(|s| s.loc == Loc::Node).count() as u64;
        let metric_local: u64 = r.outcomes.iter().map(|o| o.node_local as u64).sum();
        assert_eq!(local, metric_local);
    }

    #[test]
    fn task_spans_include_failed_and_speculative_attempts() {
        use dare_trace::task_spans;
        let wl = tiny_workload(8, 3, 30);
        let mut cfg = SimConfig::ec2(PolicyKind::Vanilla, SchedulerKind::Fifo, 62)
            .with_failures(vec![(25, 5)])
            .with_speculation(crate::config::SpeculationConfig {
                slowdown_factor: 1.2,
                min_elapsed_secs: 2.0,
            });
        cfg.record_trace = true;
        let r = crate::run(cfg, &wl);
        let spans = task_spans(r.trace.as_ref().expect("tracing was on"));
        assert!(
            spans.len() as u64 >= r.run.maps,
            "extra attempts appear among the spans"
        );
        let uncommitted = spans.iter().filter(|s| !s.committed).count() as u64;
        assert!(
            uncommitted <= r.reexecuted_tasks + r.speculative_launches,
            "uncommitted spans only from aborts/races"
        );
        if r.reexecuted_tasks > 0 {
            assert!(spans.iter().any(|s| !s.committed), "failed attempts appear");
        }
        if r.speculative_launches > 0 {
            assert!(spans.iter().any(|s| s.speculative));
        }
    }

    #[test]
    fn scarlett_replicates_proactively_and_improves_locality() {
        let wl = tiny_workload(8, 3, 40);
        let vanilla = crate::run(
            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 21),
            &wl,
        );
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 21)
            .with_scarlett(crate::scarlett::ScarlettConfig {
                epoch: SimDuration::from_secs(30),
                accesses_per_replica: 2.0,
                max_extra_replicas: 12,
            });
        cfg.budget_frac = 1.0;
        let scar = crate::run(cfg, &wl);
        let stats = scar.proactive.expect("scarlett stats present");
        assert!(stats.replicas_created > 0, "proactive replication happened");
        assert!(stats.bytes_moved > 0, "proactive replication costs network");
        assert!(
            scar.run.job_locality > vanilla.run.job_locality,
            "scarlett {} vs vanilla {}",
            scar.run.job_locality,
            vanilla.run.job_locality
        );
        // DARE's counters stay at zero: only the proactive scheme ran.
        assert_eq!(scar.replicas_created, 0);
        assert!(vanilla.proactive.is_none());
    }

    #[test]
    fn scarlett_ages_out_cooled_files() {
        // Hot phase on file 0, then a quiet tail: desired counts fall to
        // zero at the next epoch and the replicas get evicted.
        let bs = 128 * MB;
        let files: Vec<dare_workload::FileSpec> = (0..4)
            .map(|i| dare_workload::FileSpec {
                name: format!("f{i}"),
                size_bytes: 2 * bs,
            })
            .collect();
        let mut jobs: Vec<dare_workload::JobSpec> = (0..30u32)
            .map(|id| dare_workload::JobSpec {
                id,
                arrival: SimTime::from_secs(id as u64 * 3),
                file: 0,
                map_compute: SimDuration::from_secs(5),
                reduces: 1,
                output_bytes: MB,
            })
            .collect();
        // Long-delayed closing job so several quiet epochs elapse.
        jobs.push(dare_workload::JobSpec {
            id: 30,
            arrival: SimTime::from_secs(1200),
            file: 1,
            map_compute: SimDuration::from_secs(5),
            reduces: 1,
            output_bytes: MB,
        });
        let wl = Workload {
            name: "cooling".into(),
            files,
            jobs,
        };
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 5)
            .with_scarlett(crate::scarlett::ScarlettConfig {
                epoch: SimDuration::from_secs(60),
                accesses_per_replica: 2.0,
                max_extra_replicas: 8,
            });
        cfg.budget_frac = 1.0;
        let r = crate::run(cfg, &wl);
        let stats = r.proactive.expect("scarlett stats");
        assert!(stats.replicas_created > 0);
        assert!(
            stats.evictions > 0,
            "cooled file's replicas must be aged out"
        );
        assert!(
            r.final_dynamic_bytes < stats.replicas_created * 2 * bs,
            "not all proactive replicas survive to the end"
        );
    }

    #[test]
    fn cv_after_not_worse_with_dare() {
        // Greedy converges fastest on 40 jobs; the sampled policy needs the
        // full 500-job traces (Fig. 11) to spread the hot file everywhere.
        let r = run_cfg(PolicyKind::GreedyLru, SchedulerKind::Fifo, 11);
        assert!(r.cv_before > 0.0);
        assert!(
            r.cv_after <= r.cv_before * 1.05,
            "placement uniformity: before {} after {}",
            r.cv_before,
            r.cv_after
        );
    }

    fn telemetry_cfg(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::cct(
            PolicyKind::elephant_default(),
            SchedulerKind::fair_default(),
            seed,
        );
        cfg.budget_frac = 1.0;
        cfg.with_telemetry(crate::config::TelemetryConfig::default())
            .with_self_profile()
    }

    #[test]
    fn telemetry_samples_are_consistent_and_schema_valid() {
        let wl = tiny_workload(8, 3, 40);
        let r = crate::run(telemetry_cfg(5), &wl);
        let t = r.telemetry.as_ref().expect("telemetry recorded");
        assert!(t.ticks() > 10, "a multi-minute run yields many 5s ticks");
        assert_eq!(t.nodes.len(), t.ticks() * 19, "one row per node per tick");
        dare_telemetry::validate_jsonl(&t.to_jsonl()).expect("schema-valid JSONL");

        // Sample times are strictly increasing and interval-aligned except
        // for the terminal sample.
        for w in t.cluster.windows(2) {
            assert!(w[0].t_us < w[1].t_us);
        }
        for row in &t.cluster[..t.ticks() - 1] {
            assert_eq!(row.t_us % t.interval_us, 0, "tick on the sampling grid");
        }

        // The terminal sample's cumulative counters equal the run metrics.
        let last = t.cluster.last().unwrap().t_us;
        let maps_done = t.value(t.ticks() - 1, "maps_done").unwrap().as_f64();
        assert_eq!(maps_done as u64, r.run.maps, "all maps accounted for");
        let terminal_jobs = t.jobs.iter().filter(|j| j.t_us == last).count();
        assert_eq!(terminal_jobs, 40, "every job gets a terminal row");
        assert_eq!(
            r.telemetry_job_locality().unwrap().to_bits(),
            r.run.job_locality.to_bits(),
            "per-job locality re-derived bitwise from telemetry"
        );
        assert_eq!(
            r.telemetry_locality().unwrap().to_bits(),
            r.run.locality.to_bits(),
            "task-weighted locality re-derived bitwise from telemetry"
        );

        // Self-profile accounted every dispatched event to some subsystem.
        let p = r.profile.expect("profile recorded");
        assert!(p.total_events() > 0);
        let (sched_ev, _) = p.of(dare_telemetry::Subsystem::Sched);
        assert!(sched_ev > 0, "heartbeats land in the sched arm");
        dare_telemetry::validate_profile_json(&p.to_json("unit")).expect("valid report");
    }

    /// Corrupt `take` of each block's primary replicas (probing a throwaway
    /// engine for the seed-deterministic placement) and return the events.
    fn corrupt_primaries(
        cfg: &SimConfig,
        wl: &Workload,
        file: Option<dare_dfs::FileId>,
        take: usize,
        at_secs: u64,
    ) -> Vec<crate::FaultEvent> {
        let probe = Engine::new(cfg.clone(), wl);
        let nn = probe.dfs.namenode();
        let mut events = Vec::new();
        for b in 0..nn.num_blocks() as u64 {
            let id = BlockId(b);
            if file.is_some_and(|f| nn.file_of(id) != f) {
                continue;
            }
            for loc in nn.primary_locations(id).iter().take(take) {
                events.push(crate::FaultEvent::CorruptReplica {
                    at_secs,
                    node: loc.0,
                    block: b,
                });
            }
        }
        events
    }

    #[test]
    fn corrupt_local_replica_degrades_to_remote_fetch() {
        use dare_trace::TraceEvent;
        let wl = tiny_workload(8, 3, 40);
        // Seed picked so the trace exhibits a *local* read hitting a bad
        // copy: recovery transfers checksum their source too, so many
        // seeds quarantine every rotted replica via repair reads before
        // any node-local launch lands on one.
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 41);
        // Rot two of the three primaries of every file-0 block before the
        // first heartbeat: the hammered file guarantees node-local launches
        // land on a corrupt holder, and the surviving clean replica keeps
        // every job completable.
        cfg.faults.events =
            corrupt_primaries(&cfg, &wl, Some(dare_dfs::FileId(0)), 2, 1);
        cfg.record_trace = true;
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs, 40, "a clean replica survives every rot");
        assert!(r.faults.replicas_corrupted > 0);
        assert!(r.faults.checksum_failures > 0, "some read hit a bad copy");
        assert!(r.faults.replicas_quarantined > 0);
        assert_eq!(r.faults.blocks_lost, 0);
        assert_eq!(r.faults.blocks_lost_corruption, 0);

        // Trace-span proof of degradation: a read-open checksum failure on
        // the attempt's own node is followed (same instant) by that very
        // attempt launching with `local_read: false` — the local replica
        // was quarantined out from under it and it fell back to the
        // network path.
        let trace = r.trace.expect("tracing was on");
        let degraded = trace.records().iter().any(|rec| {
            let TraceEvent::ChecksumFailed { node, job, task, attempt, .. } = rec.event
            else {
                return false;
            };
            trace.records().iter().any(|l| {
                l.time == rec.time
                    && matches!(
                        l.event,
                        TraceEvent::TaskLaunched {
                            job: j,
                            task: t,
                            attempt: a,
                            node: n,
                            local_read: false,
                            ..
                        } if j == job && t == task && a == attempt && n == node
                    )
            })
        });
        assert!(
            degraded,
            "a corrupt local replica must degrade its reader to a remote fetch"
        );
    }

    #[test]
    fn corruption_repair_contends_with_map_fetches() {
        // The corruption analog of recovery_traffic_contends_with_map_fetches:
        // rot one primary of every block mid-trace on a backlogged cluster;
        // reads and scrubs quarantine the copies, and the repair burst must
        // share the fabric with in-flight map fetches. Identical seeds,
        // repair on vs off — runs diverge only at the first repair dispatch,
        // so earlier fetches pair exactly across the two runs.
        let bs = 128 * MB;
        let files: Vec<FileSpec> = (0..8)
            .map(|i| FileSpec {
                name: format!("f{i}"),
                size_bytes: 3 * bs,
            })
            .collect();
        let jobs: Vec<JobSpec> = (0..60u32)
            .map(|id| JobSpec {
                id,
                arrival: SimTime::from_secs(id as u64),
                file: if id % 4 == 0 { (id as usize / 4) % 8 } else { 0 },
                map_compute: SimDuration::from_secs(20),
                reduces: 1,
                output_bytes: 10 * MB,
            })
            .collect();
        let wl = Workload {
            name: "rot-contention".into(),
            files,
            jobs,
        };
        let base = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 93);
        let rot = corrupt_primaries(&base, &wl, None, 1, 40);
        let run_with = |streams: usize| {
            let mut cfg = base.clone().with_scanner(crate::ScannerConfig {
                period: SimDuration::from_secs(20),
                bytes_per_sec: 64 * MB,
            });
            cfg.faults.events = rot.clone();
            cfg.faults.max_recovery_streams = streams;
            cfg.record_trace = true;
            crate::run(cfg, &wl)
        };
        let quiet = run_with(0);
        let noisy = run_with(6);
        assert_eq!(quiet.faults.blocks_re_replicated, 0);
        assert!(noisy.faults.replicas_quarantined > 0);
        assert!(
            noisy.faults.blocks_re_replicated > 0,
            "quarantined primaries must be repaired"
        );
        assert!(noisy.faults.recovery_bytes > 0);

        let quiet_trace = quiet.trace.expect("tracing was on");
        let noisy_trace = noisy.trace.expect("tracing was on");
        let fetches = |spans: &[dare_trace::FlowSpan]| -> Vec<dare_trace::FlowSpan> {
            spans
                .iter()
                .filter(|s| s.kind == dare_trace::FlowKind::Fetch)
                .cloned()
                .collect()
        };
        let quiet_spans = dare_trace::flow_spans(&quiet_trace);
        let noisy_spans = dare_trace::flow_spans(&noisy_trace);
        let key = |s: &dare_trace::FlowSpan| (s.ctx, s.dst, s.bytes, s.start);
        let quiet_ends: HashMap<_, _> = fetches(&quiet_spans)
            .iter()
            .map(|s| (key(s), s.end))
            .collect();
        let mut delayed = 0u32;
        for s in fetches(&noisy_spans) {
            if let (Some(Some(q)), Some(n)) = (quiet_ends.get(&key(&s)), s.end) {
                if n > *q {
                    delayed += 1;
                }
            }
        }
        assert!(
            delayed > 0,
            "corruption repair must measurably delay at least one map fetch"
        );
        let overlapping = noisy_spans
            .iter()
            .filter(|r| r.kind == dare_trace::FlowKind::Recovery)
            .any(|r| fetches(&noisy_spans).iter().any(|f| r.overlaps(f)));
        assert!(
            overlapping,
            "a repair flow must overlap a map fetch in the noisy run"
        );
    }

    #[test]
    fn scrubber_detects_corruption_between_reads() {
        use dare_trace::TraceEvent;
        // Jobs only ever touch file 0; file 1's blocks are never read, so
        // only the background scanner can notice their rot.
        let bs = 128 * MB;
        let files: Vec<FileSpec> = (0..2)
            .map(|i| FileSpec {
                name: format!("f{i}"),
                size_bytes: 3 * bs,
            })
            .collect();
        let jobs: Vec<JobSpec> = (0..20u32)
            .map(|id| JobSpec {
                id,
                arrival: SimTime::from_secs(id as u64 * 10),
                file: 0,
                map_compute: SimDuration::from_secs(20),
                reduces: 1,
                output_bytes: 10 * MB,
            })
            .collect();
        let wl = Workload {
            name: "cold-rot".into(),
            files,
            jobs,
        };
        let base = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 23);
        let rot = corrupt_primaries(&base, &wl, Some(dare_dfs::FileId(1)), 1, 5);
        assert!(!rot.is_empty());
        let mut cfg = base.with_scanner(crate::ScannerConfig {
            period: SimDuration::from_secs(30),
            bytes_per_sec: 32 * MB,
        });
        cfg.faults.events = rot;
        cfg.record_trace = true;
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs, 20);
        assert_eq!(
            r.faults.checksum_failures, 0,
            "the cold file is never read, so no read-path detection"
        );
        assert!(
            r.faults.scrub_detections > 0,
            "the scanner must find rot reads can't"
        );
        assert!(r.faults.scrub_bytes > 0);
        assert!(r.faults.replicas_quarantined > 0);
        assert!(
            r.faults.blocks_re_replicated > 0,
            "scrub-detected primaries go through the repair queue"
        );
        assert_eq!(r.faults.blocks_lost_corruption, 0, "rf=3 rides out one rot");
        let trace = r.trace.expect("tracing was on");
        assert!(trace.records().iter().any(|rec| matches!(
            rec.event,
            TraceEvent::ScrubComplete { found, .. } if found > 0
        )));
        assert!(trace.records().iter().any(|rec| matches!(
            rec.event,
            TraceEvent::RepairCommit { .. }
        )));
    }

    #[test]
    fn corrupt_dynamic_replica_is_evicted_not_repaired() {
        use dare_trace::TraceEvent;
        let wl = tiny_workload(8, 3, 40);
        let mk = || {
            let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 29)
                .with_scanner(crate::ScannerConfig {
                    period: SimDuration::from_secs(20),
                    bytes_per_sec: 64 * MB,
                });
            cfg.budget_frac = 1.0;
            cfg.record_trace = true;
            cfg
        };
        // Probe run: find the first dynamic replica DARE materialises. The
        // real run below differs only by one silent rot event, so the same
        // replica commits at the same instant there.
        let probe = crate::run(mk(), &wl);
        let probe_trace = probe.trace.expect("tracing was on");
        let committed = probe_trace
            .records()
            .iter()
            .find(|rec| matches!(rec.event, TraceEvent::ReplicaCommitted { .. }))
            .expect("greedy LRU replicates");
        let TraceEvent::ReplicaCommitted { node, block } = committed.event else {
            unreachable!()
        };

        let mut cfg = mk();
        cfg.faults.events.push(crate::FaultEvent::CorruptReplica {
            at_secs: committed.time.as_secs_f64() as u64 + 1,
            node,
            block,
        });
        let r = crate::run(cfg, &wl);
        assert_eq!(r.run.jobs, 40);
        let trace = r.trace.expect("tracing was on");
        assert!(
            trace.records().iter().any(|rec| matches!(
                rec.event,
                TraceEvent::ReplicaQuarantined { node: n, block: b, dynamic: true }
                    if n == node && b == block
            )),
            "the rotted dynamic replica must be quarantined as dynamic"
        );
        // Eviction, never repair: the primaries are intact, so the block
        // never enters the recovery queue and no repair traffic flows.
        assert!(!trace.records().iter().any(|rec| matches!(
            rec.event,
            TraceEvent::RecoveryQueued { block: b, .. } if b == block
        )));
        assert!(!trace
            .records()
            .iter()
            .any(|rec| matches!(rec.event, TraceEvent::RepairCommit { .. })));
        assert_eq!(r.faults.blocks_re_replicated, 0);
        assert_eq!(r.faults.blocks_lost, 0);
        assert_eq!(r.faults.blocks_lost_corruption, 0);
        assert!(r.faults.replicas_quarantined > 0);
    }

    #[test]
    fn rf1_corruption_is_accounted_as_corruption_loss() {
        let wl = tiny_workload(8, 3, 40);
        let mut base = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 37);
        base.dfs.replication_factor = 1;
        // Rot the single copy of every file-0 block: detection (read or
        // scrub) leaves zero replicas, so the blocks are gone — charged to
        // the corruption ledger, not the crash one.
        let rot = corrupt_primaries(&base, &wl, Some(dare_dfs::FileId(0)), 1, 25);
        let mut cfg = base
            .with_scanner(crate::ScannerConfig {
                period: SimDuration::from_secs(30),
                bytes_per_sec: 32 * MB,
            })
            .with_invariant_checks();
        cfg.faults.events = rot;
        let r = crate::run(cfg, &wl);
        assert!(
            r.faults.blocks_lost_corruption > 0,
            "rf=1 rot must lose blocks"
        );
        assert_eq!(
            r.faults.blocks_lost, 0,
            "no crash happened, so the crash ledger stays empty"
        );
        assert!(r.faults.jobs_failed > 0, "jobs on rotted blocks must fail");
        assert_eq!(r.run.failed_jobs as u64, r.faults.jobs_failed);
        assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
    }

    #[test]
    fn corruption_and_scrubbing_are_deterministic() {
        let wl = tiny_workload(8, 3, 30);
        let run = || {
            let spec = crate::FaultSpec {
                horizon_secs: 300,
                kills: 0,
                crashes: 1,
                mean_down_secs: 60,
                rack_outages: 0,
                stragglers: 1,
                straggler_factor: 3.0,
                corruption_rate_per_node_hour: 40.0,
            };
            let cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 41);
            let plan = crate::FaultPlan::generate_valid(&spec, &cfg.topology(), 24, 0xB17F117);
            let cfg = cfg
                .with_scanner(crate::ScannerConfig {
                    period: SimDuration::from_secs(45),
                    bytes_per_sec: 16 * MB,
                })
                .with_faults(plan)
                .with_invariant_checks();
            crate::run(cfg, &wl)
        };
        let a = run();
        let b = run();
        assert!(a.faults.replicas_corrupted > 0, "the sweep actually rotted bytes");
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
        assert_eq!(a.dfs_fingerprint, b.dfs_fingerprint);
    }

    #[test]
    fn telemetry_is_observation_only() {
        let wl = tiny_workload(8, 3, 40);
        let base = crate::run(
            {
                let mut c = SimConfig::cct(
                    PolicyKind::elephant_default(),
                    SchedulerKind::fair_default(),
                    5,
                );
                c.budget_frac = 1.0;
                c
            },
            &wl,
        );
        let sampled = crate::run(telemetry_cfg(5), &wl);
        assert_eq!(base.run, sampled.run);
        assert_eq!(base.outcomes, sampled.outcomes);
        assert_eq!(base.dfs_fingerprint, sampled.dfs_fingerprint);
        assert!(base.telemetry.is_none() && base.profile.is_none());
    }

    /// Batched heartbeats change event timing (documented), but the run
    /// must still complete every job, respect the structural invariants,
    /// and stay deterministic — including across a crash and rejoin,
    /// where no per-node chain exists to restart.
    #[test]
    fn batched_heartbeats_complete_all_jobs_with_faults() {
        let wl = tiny_workload(8, 3, 40);
        let run = || {
            let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 23)
                .with_batched_heartbeats()
                .with_failures(vec![(40, 2), (90, 7), (150, 11)])
                .with_invariant_checks();
            cfg.budget_frac = 1.0;
            crate::run(cfg, &wl)
        };
        let a = run();
        assert_eq!(a.run.jobs, 40, "every job completes under batched heartbeats");
        for o in &a.outcomes {
            assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
        }
        let b = run();
        assert_eq!(a.run, b.run);
        assert_eq!(a.dfs_fingerprint, b.dfs_fingerprint);
    }

    /// Model-cluster engine for the step-control fault tests: a few
    /// nodes, RF 2, one serialized recovery stream, per-event invariant
    /// checks on — the same shape the bounded model checker drives.
    fn stepped_engine(nodes: u32, blocks: u64, seed: u64) -> Engine {
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, seed);
        cfg.profile = dare_net::ClusterProfile::scale(nodes);
        cfg.dfs.replication_factor = 2;
        cfg.faults.max_recovery_streams = 1;
        cfg.check_invariants = true;
        cfg.budget_frac = 1.0;
        Engine::new(cfg, &tiny_workload(1, blocks, 1))
    }

    fn step_to_quiescence(eng: &mut Engine) {
        for _ in 0..200_000 {
            match eng.step().expect("invariants hold at every event") {
                StepOutcome::Progressed => {}
                StepOutcome::Quiescent => return,
            }
        }
        panic!("engine did not quiesce");
    }

    /// Repair targets are the live nodes without a copy on disk. Neither
    /// a crashed holder's intact disk nor an unreported dynamic replica
    /// on a live node is a visible location; each must still be handled
    /// exactly, as a scan of every node's disk would.
    #[test]
    fn repair_targets_skip_every_live_node_with_a_copy_on_disk() {
        let mut eng = stepped_engine(6, 2, 0x7A26);
        let b = BlockId(0);
        let scan = |eng: &Engine| -> Vec<NodeId> {
            (0..6)
                .map(NodeId)
                .filter(|&n| eng.node_up(n.idx()) && !eng.dfs.is_physically_present(n, b))
                .collect()
        };
        assert_eq!(eng.repair_targets(b, &[]), scan(&eng));
        let holder = eng.dfs.visible_locations(b)[0];
        eng.nodes.set_crashed(holder.idx(), true);
        assert_eq!(eng.repair_targets(b, &[]), scan(&eng));
        let outsider = scan(&eng)[0];
        assert!(eng.dfs.insert_dynamic(eng.now, outsider, b));
        let targets = eng.repair_targets(b, &[]);
        assert!(!targets.contains(&outsider), "unreported dynamic replica");
        assert_eq!(targets, scan(&eng));
        // A repair already copying to a node rules it out too.
        assert_eq!(eng.repair_targets(b, &[targets[0].0]), scan(&eng)[1..]);
    }

    /// The rejoin-during-re-replication race: a node crashes long enough
    /// to be declared dead, repairs for its blocks queue up behind one
    /// recovery stream, and the node rejoins while the first transfer is
    /// still in flight. The healed queue entries must be re-checked and
    /// skipped (need-driven repair), the rejoined node's replicas must
    /// re-register exactly once, and nothing may be counted lost.
    #[test]
    fn rejoin_during_rereplication_cancels_stale_repairs() {
        let mut eng = stepped_engine(3, 4, 0xACE5);
        // Crash the heaviest holder so several blocks go under-RF at
        // declare-dead (t=30 s) and the queue backs up; rejoin at 31 s
        // lands between the first pop and the first completion (~32.4 s).
        let heavy = (0..3u32)
            .max_by_key(|&n| (0..4).filter(|&b| eng.block_present(n, b)).count())
            .unwrap();
        let held: Vec<u64> = (0..4).filter(|&b| eng.block_present(heavy, b)).collect();
        assert!(held.len() >= 2, "need a backed-up repair queue");
        eng.inject_crash(heavy, 31);
        step_to_quiescence(&mut eng);

        let s = eng.fault_stats();
        assert_eq!(s.blocks_lost, 0, "every block had a surviving replica");
        assert_eq!(s.blocks_lost_corruption, 0);
        assert_eq!(s.nodes_rejoined, 1);
        assert_eq!(eng.recovery_backlog(), 0, "repair queue fully drained");
        // Only the transfer already in flight at rejoin may commit; the
        // queued blocks healed when the node came back and must be
        // skipped by the pop-time re-check, not blindly copied.
        assert!(
            s.blocks_re_replicated < held.len() as u64,
            "{} of {} under-replicated blocks re-replicated — healed \
             queue entries were not re-checked",
            s.blocks_re_replicated,
            held.len()
        );
        // No duplicate registrations: the rejoined node's replicas came
        // back exactly once, so every block is at or above RF with each
        // location holding exactly one physical copy (the per-event
        // invariant checks verified master/disk coherence throughout).
        for b in 0..4u64 {
            assert!(eng.visible_replicas(b) >= 2, "block {b} below RF");
        }
    }

    /// A replica feeding an in-flight repair turns out corrupt: the
    /// transfer must be cancelled with the quarantine, not committed —
    /// the bounded model checker found the original bug as a
    /// lost-blocks-unrecoverable violation (the tainted arrival
    /// resurrected a block already declared lost with bytes read from
    /// the corrupt copy).
    #[test]
    fn corrupt_recovery_source_taints_inflight_repair() {
        let mut eng = stepped_engine(4, 4, 0xACE5);
        // Pick a block and its two holders: corrupt one copy silently,
        // permanently kill the other. Recovery then starts from the
        // corrupt source; when a read detects the corruption, the block
        // has no clean copy left and must be declared lost — and stay
        // lost, with the in-flight tainted transfer discarded.
        let holders: Vec<u32> = (0..4u32).filter(|&n| eng.block_present(n, 0)).collect();
        assert_eq!(holders.len(), 2, "block 0 starts at RF 2");
        eng.inject_corrupt(holders[0], 0);
        eng.inject_kill(holders[1]);
        step_to_quiescence(&mut eng);

        // With its only surviving copy corrupt, block 0 is lost; the
        // invariant checks (run after every event) verified that no
        // recovery transfer ever re-materialized it.
        assert_eq!(eng.lost_block_count(), 1, "block 0 is unrecoverable");
        assert_eq!(eng.fault_stats().blocks_lost_corruption, 1);
        assert!(
            (0..4u32).all(|n| !eng.block_present(n, 0)),
            "a lost block holds no physical copy anywhere"
        );
        assert_eq!(eng.recovery_backlog(), 0);
    }

    /// The queue arm and peak gauges show up in a profiled run, and the
    /// profiler remains observation-only with them.
    #[test]
    fn profile_reports_queue_arm_and_peaks() {
        let wl = tiny_workload(8, 3, 40);
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 11);
        cfg.budget_frac = 1.0;
        cfg.self_profile = true;
        let r = crate::run(cfg, &wl);
        let p = r.profile.expect("profiled run returns a report");
        let (queue_events, _) = p.of(Subsystem::Queue);
        assert!(queue_events > 0, "every dispatched event was popped");
        assert_eq!(queue_events, p.total_events(), "one pop per dispatched event");
        assert!(p.peak_queue_len > 0, "the queue held events");
        assert!(p.peak_slab_occupancy > 0, "fetch flows occupied the slab");
    }
}
