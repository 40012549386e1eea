//! Typed trace events emitted by the simulation engine.
//!
//! Events are deliberately flat: every field is an integer, a bool, or a
//! small enum so that the JSONL export is byte-stable across runs and
//! platforms (no floating point ever reaches a golden file).  Node, job,
//! task and block identifiers are raw integers here — `dare-trace` sits
//! below the domain crates in the dependency graph and must not know
//! about their newtypes.

use dare_simcore::numfmt::push_u64;
use dare_simcore::time::SimTime;

/// Which subsystem an event belongs to, used for per-subsystem counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Job lifecycle and scheduler decisions (launches, delay skips).
    Sched,
    /// Flow-level network transfers.
    Net,
    /// Replica placement, commits and evictions.
    Dfs,
    /// Crashes, dead-node declarations, retries and recovery queueing.
    Fault,
}

impl Subsystem {
    /// Stable lower-case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Sched => "sched",
            Subsystem::Net => "net",
            Subsystem::Dfs => "dfs",
            Subsystem::Fault => "fault",
        }
    }
}

/// Data-path locality of a scheduling decision, mirroring the engine's
/// notion without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// The input block is on the chosen node's local disk.
    Node,
    /// The input block is in the chosen node's rack.
    Rack,
    /// The input block must cross the core (off-rack).
    Remote,
}

impl Loc {
    /// Stable lower-case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Loc::Node => "node",
            Loc::Rack => "rack",
            Loc::Remote => "remote",
        }
    }
}

/// Why a network flow exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// A map task pulling its input block from a remote datanode.
    Fetch,
    /// Re-replication of an under-replicated block after a failure.
    Recovery,
    /// Proactive replication triggered by a placement policy.
    Proactive,
}

impl FlowKind {
    /// Stable lower-case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Fetch => "fetch",
            FlowKind::Recovery => "recovery",
            FlowKind::Proactive => "proactive",
        }
    }
}

/// What a flow was moving data *for*: a task's input fetch, or a block
/// copy (recovery / proactive replication).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowCtx {
    /// Input fetch for a specific map attempt.
    Fetch {
        /// Owning job id.
        job: u32,
        /// Map task index within the job.
        task: u32,
        /// Attempt number for that task.
        attempt: u32,
    },
    /// Block copy identified by the global block id.
    Block {
        /// The block being copied.
        block: u64,
    },
}

/// A single structured event.  Variants map one-to-one onto `ev` names in
/// the JSONL schema (see [`crate::export::to_jsonl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job entered the system.
    JobSubmitted {
        /// Job id.
        job: u32,
        /// Number of map tasks in the job.
        maps: u32,
    },
    /// All tasks of a job finished; `dur_us` is submission→completion.
    JobCompleted {
        /// Job id.
        job: u32,
        /// Turnaround time in microseconds.
        dur_us: u64,
    },
    /// A job was abandoned after exhausting task retries.
    JobFailed {
        /// Job id.
        job: u32,
    },
    /// A map attempt was placed on a node.
    TaskLaunched {
        /// Owning job id.
        job: u32,
        /// Map task index.
        task: u32,
        /// Attempt number.
        attempt: u32,
        /// Node the attempt runs on.
        node: u32,
        /// Data-path locality of the placement.
        loc: Loc,
        /// True if this is a speculative duplicate attempt.
        speculative: bool,
        /// True if the input is read from local disk (no network flow).
        local_read: bool,
    },
    /// A map attempt finished reading its input (local disk or network).
    TaskReadDone {
        /// Owning job id.
        job: u32,
        /// Map task index.
        task: u32,
        /// Attempt number.
        attempt: u32,
        /// Node the attempt runs on.
        node: u32,
    },
    /// A map attempt committed its output; `dur_us` is launch→commit.
    TaskCommitted {
        /// Owning job id.
        job: u32,
        /// Map task index.
        task: u32,
        /// Attempt number.
        attempt: u32,
        /// Node the attempt ran on.
        node: u32,
        /// Attempt latency in microseconds.
        dur_us: u64,
    },
    /// A running attempt was killed (node death or lost speculation race).
    TaskAborted {
        /// Owning job id.
        job: u32,
        /// Map task index.
        task: u32,
        /// Attempt number.
        attempt: u32,
        /// Node the attempt was running on.
        node: u32,
    },
    /// A failed task went back onto the pending queue for a retry.
    TaskRequeued {
        /// Owning job id.
        job: u32,
        /// Map task index.
        task: u32,
        /// Next attempt number.
        attempt: u32,
    },
    /// The delay scheduler declined a non-local launch to wait for
    /// locality (Zaharia et al., EuroSys 2010).
    DelaySkip {
        /// Job that was skipped.
        job: u32,
        /// Node whose slot was declined.
        node: u32,
        /// Consecutive skips so far for this job (before this one).
        skips: u32,
        /// Best locality the node could have offered.
        offered: Loc,
    },
    /// A network flow started.
    FlowStarted {
        /// Flow id from the network simulator.
        flow: u64,
        /// Why the flow exists.
        kind: FlowKind,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Payload size in bytes.
        bytes: u64,
        /// True if the flow crosses the rack core.
        cross_rack: bool,
        /// What the flow is moving data for.
        ctx: FlowCtx,
    },
    /// A network flow delivered all its bytes; `dur_us` is start→finish.
    FlowFinished {
        /// Flow id from the network simulator.
        flow: u64,
        /// Why the flow existed.
        kind: FlowKind,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Payload size in bytes.
        bytes: u64,
        /// Transfer latency in microseconds.
        dur_us: u64,
        /// What the flow was moving data for.
        ctx: FlowCtx,
    },
    /// A network flow was torn down before completion.
    FlowCancelled {
        /// Flow id from the network simulator.
        flow: u64,
        /// Why the flow existed.
        kind: FlowKind,
    },
    /// A replication policy ruled on an observed remote access.
    ReplicaDecision {
        /// Node that observed the access.
        node: u32,
        /// Block that was accessed.
        block: u64,
        /// True if the policy chose to create a dynamic replica.
        replicate: bool,
        /// Number of cached replicas evicted to make room.
        evictions: u32,
    },
    /// A dynamic replica finished materialising on a node.
    ReplicaCommitted {
        /// Node now holding the replica.
        node: u32,
        /// Replicated block.
        block: u64,
    },
    /// A dynamic replica was evicted from a node's cache budget.
    ReplicaEvicted {
        /// Node that dropped the replica.
        node: u32,
        /// Evicted block.
        block: u64,
    },
    /// A node stopped heartbeating (silent crash).
    NodeCrashed {
        /// Crashed node.
        node: u32,
        /// True if the node never rejoins.
        permanent: bool,
    },
    /// A transiently-failed node came back and sent a block report.
    NodeRejoined {
        /// Rejoining node.
        node: u32,
        /// Blocks still present on its disk.
        restored: u32,
    },
    /// The master declared a silent node dead after the heartbeat timeout.
    NodeDeclaredDead {
        /// Declared node.
        node: u32,
        /// Blocks left under-replicated by the declaration.
        under_replicated: u32,
    },
    /// A block lost its last visible replica.
    BlockLost {
        /// The lost block.
        block: u64,
    },
    /// A block was queued for re-replication.
    RecoveryQueued {
        /// The under-replicated block.
        block: u64,
        /// Visible replicas remaining.
        visible: u32,
    },
    /// A resident replica's bytes silently rotted (fault injection).
    /// Nothing in the cluster reacts until a read or scrub detects it.
    ReplicaCorrupted {
        /// Node holding the now-corrupt replica.
        node: u32,
        /// Affected block.
        block: u64,
        /// True when the corrupted copy is a DARE dynamic replica.
        dynamic: bool,
    },
    /// A map-side read checksummed its input replica and failed.
    ChecksumFailed {
        /// Node holding the corrupt replica (read source).
        node: u32,
        /// Affected block.
        block: u64,
        /// Job whose attempt hit the bad replica.
        job: u32,
        /// Map task index.
        task: u32,
        /// Attempt number.
        attempt: u32,
    },
    /// A corrupt replica was removed from the namenode's view (detected
    /// by a read or a scrub). Dynamic replicas are evicted; primary
    /// replicas leave the block under-replicated until repair.
    ReplicaQuarantined {
        /// Node the replica was quarantined on.
        node: u32,
        /// Affected block.
        block: u64,
        /// True when the quarantined copy was a DARE dynamic replica.
        dynamic: bool,
    },
    /// A background scrub pass over one node's disk finished.
    ScrubComplete {
        /// Scrubbed node.
        node: u32,
        /// Bytes checksummed by the pass.
        bytes: u64,
        /// Corrupt replicas detected (and quarantined) by the pass.
        found: u32,
    },
    /// A repair copy restored a replica of a corruption-quarantined
    /// block; `wait_us` is quarantine→repair latency.
    RepairCommit {
        /// Repaired block.
        block: u64,
        /// Node that received the repair copy.
        node: u32,
        /// Quarantine-to-repair latency in microseconds.
        wait_us: u64,
    },
}

impl TraceEvent {
    /// Stable snake-case event name used in the JSONL `ev` field.
    pub fn name(&self) -> &'static str {
        self.kind().0
    }

    /// The subsystem this event is attributed to.
    pub fn subsystem(&self) -> Subsystem {
        self.kind().1
    }

    fn kind(&self) -> (&'static str, Subsystem) {
        use Subsystem::*;
        match self {
            TraceEvent::JobSubmitted { .. } => ("job_submitted", Sched),
            TraceEvent::JobCompleted { .. } => ("job_completed", Sched),
            TraceEvent::JobFailed { .. } => ("job_failed", Sched),
            TraceEvent::TaskLaunched { .. } => ("task_launched", Sched),
            TraceEvent::TaskReadDone { .. } => ("task_read_done", Sched),
            TraceEvent::TaskCommitted { .. } => ("task_committed", Sched),
            TraceEvent::TaskAborted { .. } => ("task_aborted", Fault),
            TraceEvent::TaskRequeued { .. } => ("task_requeued", Fault),
            TraceEvent::DelaySkip { .. } => ("delay_skip", Sched),
            TraceEvent::FlowStarted { .. } => ("flow_started", Net),
            TraceEvent::FlowFinished { .. } => ("flow_finished", Net),
            TraceEvent::FlowCancelled { .. } => ("flow_cancelled", Net),
            TraceEvent::ReplicaDecision { .. } => ("replica_decision", Dfs),
            TraceEvent::ReplicaCommitted { .. } => ("replica_committed", Dfs),
            TraceEvent::ReplicaEvicted { .. } => ("replica_evicted", Dfs),
            TraceEvent::NodeCrashed { .. } => ("node_crashed", Fault),
            TraceEvent::NodeRejoined { .. } => ("node_rejoined", Fault),
            TraceEvent::NodeDeclaredDead { .. } => ("node_declared_dead", Fault),
            TraceEvent::BlockLost { .. } => ("block_lost", Fault),
            TraceEvent::RecoveryQueued { .. } => ("recovery_queued", Fault),
            TraceEvent::ReplicaCorrupted { .. } => ("replica_corrupted", Fault),
            TraceEvent::ChecksumFailed { .. } => ("checksum_failed", Dfs),
            TraceEvent::ReplicaQuarantined { .. } => ("replica_quarantined", Dfs),
            TraceEvent::ScrubComplete { .. } => ("scrub_complete", Dfs),
            TraceEvent::RepairCommit { .. } => ("repair_commit", Dfs),
        }
    }

    /// The event's JSONL schema: its fields after `sub`, in key order.
    /// [`crate::to_jsonl`] writes from this list and [`crate::from_jsonl`]
    /// reads a line back with it.
    pub(crate) fn fields(&mut self, v: &mut impl FieldVisitor) -> Result<(), String> {
        match self {
            TraceEvent::JobSubmitted { job, maps } => {
                v.field(JOB, job)?;
                v.field("maps", maps)
            }
            TraceEvent::JobCompleted { job, dur_us } => {
                v.field(JOB, job)?;
                v.field(DUR_US, dur_us)
            }
            TraceEvent::JobFailed { job } => v.field(JOB, job),
            TraceEvent::TaskLaunched {
                job,
                task,
                attempt,
                node,
                loc,
                speculative,
                local_read,
            } => {
                attempt_fields(v, job, task, attempt)?;
                v.field(NODE, node)?;
                v.label("loc", loc)?;
                v.field("spec", speculative)?;
                v.field("local_read", local_read)
            }
            TraceEvent::TaskReadDone {
                job,
                task,
                attempt,
                node,
            }
            | TraceEvent::TaskAborted {
                job,
                task,
                attempt,
                node,
            } => {
                attempt_fields(v, job, task, attempt)?;
                v.field(NODE, node)
            }
            TraceEvent::TaskCommitted {
                job,
                task,
                attempt,
                node,
                dur_us,
            } => {
                attempt_fields(v, job, task, attempt)?;
                v.field(NODE, node)?;
                v.field(DUR_US, dur_us)
            }
            TraceEvent::TaskRequeued { job, task, attempt } => {
                attempt_fields(v, job, task, attempt)
            }
            TraceEvent::DelaySkip {
                job,
                node,
                skips,
                offered,
            } => {
                v.field(JOB, job)?;
                v.field(NODE, node)?;
                v.field("skips", skips)?;
                v.label("offered", offered)
            }
            TraceEvent::FlowStarted {
                flow,
                kind,
                src,
                dst,
                bytes,
                cross_rack,
                ctx,
            } => {
                v.field(FLOW, flow)?;
                v.label(KIND, kind)?;
                v.field(SRC, src)?;
                v.field(DST, dst)?;
                v.field(BYTES, bytes)?;
                v.field("cross_rack", cross_rack)?;
                ctx.fields(v)
            }
            TraceEvent::FlowFinished {
                flow,
                kind,
                src,
                dst,
                bytes,
                dur_us,
                ctx,
            } => {
                v.field(FLOW, flow)?;
                v.label(KIND, kind)?;
                v.field(SRC, src)?;
                v.field(DST, dst)?;
                v.field(BYTES, bytes)?;
                v.field(DUR_US, dur_us)?;
                ctx.fields(v)
            }
            TraceEvent::FlowCancelled { flow, kind } => {
                v.field(FLOW, flow)?;
                v.label(KIND, kind)
            }
            TraceEvent::ReplicaDecision {
                node,
                block,
                replicate,
                evictions,
            } => {
                v.field(NODE, node)?;
                v.field(BLOCK, block)?;
                v.field("replicate", replicate)?;
                v.field("evictions", evictions)
            }
            TraceEvent::ReplicaCommitted { node, block }
            | TraceEvent::ReplicaEvicted { node, block } => {
                v.field(NODE, node)?;
                v.field(BLOCK, block)
            }
            TraceEvent::NodeCrashed { node, permanent } => {
                v.field(NODE, node)?;
                v.field("permanent", permanent)
            }
            TraceEvent::NodeRejoined { node, restored } => {
                v.field(NODE, node)?;
                v.field("restored", restored)
            }
            TraceEvent::NodeDeclaredDead {
                node,
                under_replicated,
            } => {
                v.field(NODE, node)?;
                v.field("under", under_replicated)
            }
            TraceEvent::BlockLost { block } => v.field(BLOCK, block),
            TraceEvent::RecoveryQueued { block, visible } => {
                v.field(BLOCK, block)?;
                v.field("visible", visible)
            }
            TraceEvent::ReplicaCorrupted {
                node,
                block,
                dynamic,
            }
            | TraceEvent::ReplicaQuarantined {
                node,
                block,
                dynamic,
            } => {
                v.field(NODE, node)?;
                v.field(BLOCK, block)?;
                v.field("dynamic", dynamic)
            }
            TraceEvent::ChecksumFailed {
                node,
                block,
                job,
                task,
                attempt,
            } => {
                v.field(NODE, node)?;
                v.field(BLOCK, block)?;
                attempt_fields(v, job, task, attempt)
            }
            TraceEvent::ScrubComplete { node, bytes, found } => {
                v.field(NODE, node)?;
                v.field(BYTES, bytes)?;
                v.field("found", found)
            }
            TraceEvent::RepairCommit {
                block,
                node,
                wait_us,
            } => {
                v.field(BLOCK, block)?;
                v.field(NODE, node)?;
                v.field("wait_us", wait_us)
            }
        }
    }
}

/// One timestamped, sequence-numbered event as stored in a [`crate::Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time the event was recorded at.
    pub time: SimTime,
    /// Monotonic sequence number, unique within a run.  Breaks ties for
    /// events recorded at the same instant and makes the export totally
    /// ordered.
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// The record's JSONL schema: `t`, `seq`, `ev`, `sub`, then the
    /// event's [`TraceEvent::fields`]. Reading `ev` picks the variant, and
    /// `sub` must be its subsystem.
    pub(crate) fn fields(&mut self, v: &mut impl FieldVisitor) -> Result<(), String> {
        let mut t = self.time.as_micros();
        v.field("t", &mut t)?;
        self.time = SimTime::from_micros(t);
        v.field("seq", &mut self.seq)?;
        v.label("ev", &mut self.event)?;
        let mut sub = self.event.subsystem();
        v.label("sub", &mut sub)?;
        if sub != self.event.subsystem() {
            return Err(format!("wrong \"sub\" for {:?}", self.event.name()));
        }
        self.event.fields(v)
    }
}

impl FlowCtx {
    /// A `block` key marks a block copy; otherwise the fetching attempt's
    /// job/task/attempt follow.
    fn fields(&mut self, v: &mut impl FieldVisitor) -> Result<(), String> {
        let is_block = matches!(self, FlowCtx::Block { .. });
        if v.next_is(BLOCK, is_block) != is_block {
            *self = match self {
                FlowCtx::Block { .. } => FlowCtx::Fetch {
                    job: 0,
                    task: 0,
                    attempt: 0,
                },
                FlowCtx::Fetch { .. } => FlowCtx::Block { block: 0 },
            };
        }
        match self {
            FlowCtx::Block { block } => v.field(BLOCK, block),
            FlowCtx::Fetch { job, task, attempt } => attempt_fields(v, job, task, attempt),
        }
    }
}

// Keys several events share; every other key is spelled once, inline.
const JOB: &str = "job";
const NODE: &str = "node";
const BLOCK: &str = "block";
const BYTES: &str = "bytes";
const DUR_US: &str = "dur_us";
const FLOW: &str = "flow";
const KIND: &str = "kind";
const SRC: &str = "src";
const DST: &str = "dst";

fn attempt_fields(
    v: &mut impl FieldVisitor,
    job: &mut u32,
    task: &mut u32,
    attempt: &mut u32,
) -> Result<(), String> {
    v.field(JOB, job)?;
    v.field("task", task)?;
    v.field("attempt", attempt)
}

/// One direction of the JSONL schema, driven by [`TraceRecord::fields`]:
/// a writer appends each field; a reader takes the next field off a
/// line, failing unless it has the expected key and a value spelled the
/// way the writer spells it.
pub(crate) trait FieldVisitor {
    /// An integer or bool field, written as its `Display` text.
    fn field<T: Scalar>(&mut self, key: &'static str, v: &mut T) -> Result<(), String>;
    /// A field naming one value of a closed set, written as a JSON string.
    fn label<L: Label>(&mut self, key: &'static str, v: &mut L) -> Result<(), String>;
    /// Whether the next field is `key`: a writer answers `current`, a
    /// reader looks at the line.
    fn next_is(&mut self, key: &'static str, current: bool) -> bool;
}

/// An integer or bool field value, written as its `Display` text and
/// read back only from that spelling.
pub(crate) trait Scalar: Copy {
    /// Append the value's text.
    fn write(self, out: &mut String);
    /// The value `text` spells, if `write` would spell it so: digits
    /// only for an integer (no sign, no leading zero, no overflow),
    /// `true` or `false` for a bool.
    fn read(text: &str) -> Option<Self>;
}

/// The `u64` a canonical decimal spelling denotes.
fn read_digits(text: &str) -> Option<u64> {
    let digits = text.as_bytes();
    if digits.is_empty() || (digits[0] == b'0' && digits.len() > 1) {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &d| {
        if !d.is_ascii_digit() {
            return None;
        }
        acc.checked_mul(10)?.checked_add((d - b'0') as u64)
    })
}

impl Scalar for u64 {
    fn write(self, out: &mut String) {
        push_u64(out, self);
    }
    fn read(text: &str) -> Option<Self> {
        read_digits(text)
    }
}

impl Scalar for u32 {
    fn write(self, out: &mut String) {
        push_u64(out, self.into());
    }
    fn read(text: &str) -> Option<Self> {
        read_digits(text)?.try_into().ok()
    }
}

impl Scalar for bool {
    fn write(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
    fn read(text: &str) -> Option<Self> {
        match text {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }
}

/// A closed set of values with stable names.
pub(crate) trait Label: Copy + 'static {
    /// Every value. For [`TraceEvent`], one blank per variant, whose
    /// fields the reader then fills in.
    const ALL: &'static [Self];
    /// The name written for this value.
    fn label(self) -> &'static str;
}

impl Label for Subsystem {
    const ALL: &'static [Self] = &[
        Subsystem::Sched,
        Subsystem::Net,
        Subsystem::Dfs,
        Subsystem::Fault,
    ];
    fn label(self) -> &'static str {
        self.name()
    }
}

impl Label for Loc {
    const ALL: &'static [Self] = &[Loc::Node, Loc::Rack, Loc::Remote];
    fn label(self) -> &'static str {
        self.name()
    }
}

impl Label for FlowKind {
    const ALL: &'static [Self] = &[FlowKind::Fetch, FlowKind::Recovery, FlowKind::Proactive];
    fn label(self) -> &'static str {
        self.name()
    }
}

impl Label for TraceEvent {
    const ALL: &'static [Self] = &[
        TraceEvent::JobSubmitted { job: 0, maps: 0 },
        TraceEvent::JobCompleted { job: 0, dur_us: 0 },
        TraceEvent::JobFailed { job: 0 },
        TraceEvent::TaskLaunched {
            job: 0,
            task: 0,
            attempt: 0,
            node: 0,
            loc: Loc::Node,
            speculative: false,
            local_read: false,
        },
        TraceEvent::TaskReadDone {
            job: 0,
            task: 0,
            attempt: 0,
            node: 0,
        },
        TraceEvent::TaskCommitted {
            job: 0,
            task: 0,
            attempt: 0,
            node: 0,
            dur_us: 0,
        },
        TraceEvent::TaskAborted {
            job: 0,
            task: 0,
            attempt: 0,
            node: 0,
        },
        TraceEvent::TaskRequeued {
            job: 0,
            task: 0,
            attempt: 0,
        },
        TraceEvent::DelaySkip {
            job: 0,
            node: 0,
            skips: 0,
            offered: Loc::Node,
        },
        TraceEvent::FlowStarted {
            flow: 0,
            kind: FlowKind::Fetch,
            src: 0,
            dst: 0,
            bytes: 0,
            cross_rack: false,
            ctx: FlowCtx::Block { block: 0 },
        },
        TraceEvent::FlowFinished {
            flow: 0,
            kind: FlowKind::Fetch,
            src: 0,
            dst: 0,
            bytes: 0,
            dur_us: 0,
            ctx: FlowCtx::Block { block: 0 },
        },
        TraceEvent::FlowCancelled {
            flow: 0,
            kind: FlowKind::Fetch,
        },
        TraceEvent::ReplicaDecision {
            node: 0,
            block: 0,
            replicate: false,
            evictions: 0,
        },
        TraceEvent::ReplicaCommitted { node: 0, block: 0 },
        TraceEvent::ReplicaEvicted { node: 0, block: 0 },
        TraceEvent::NodeCrashed {
            node: 0,
            permanent: false,
        },
        TraceEvent::NodeRejoined {
            node: 0,
            restored: 0,
        },
        TraceEvent::NodeDeclaredDead {
            node: 0,
            under_replicated: 0,
        },
        TraceEvent::BlockLost { block: 0 },
        TraceEvent::RecoveryQueued {
            block: 0,
            visible: 0,
        },
        TraceEvent::ReplicaCorrupted {
            node: 0,
            block: 0,
            dynamic: false,
        },
        TraceEvent::ChecksumFailed {
            node: 0,
            block: 0,
            job: 0,
            task: 0,
            attempt: 0,
        },
        TraceEvent::ReplicaQuarantined {
            node: 0,
            block: 0,
            dynamic: false,
        },
        TraceEvent::ScrubComplete {
            node: 0,
            bytes: 0,
            found: 0,
        },
        TraceEvent::RepairCommit {
            block: 0,
            node: 0,
            wait_us: 0,
        },
    ];
    fn label(self) -> &'static str {
        self.name()
    }
}
