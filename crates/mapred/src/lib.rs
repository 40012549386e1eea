//! # dare-mapred — the MapReduce cluster simulator
//!
//! A discrete-event model of a Hadoop cluster that reproduces the paper's
//! evaluation pipeline end to end:
//!
//! 1. **Ingest**: the workload's dataset is written into the
//!    [`dare_dfs::Dfs`] with the Hadoop default placement policy (3 primary
//!    replicas per block).
//! 2. **Job replay**: jobs arrive per the trace; each runs one map task per
//!    input block plus a modeled shuffle/reduce phase.
//! 3. **Scheduling**: nodes heartbeat every 3 s (staggered, plus
//!    out-of-band heartbeats on task completion, as real Hadoop does); a
//!    [`dare_sched::Scheduler`] fills free map slots.
//! 4. **Reads**: node-local input is read from disk (capacity shared among
//!    concurrent local readers); non-local input is fetched through the
//!    [`dare_net::flow::FlowSim`] flow-level network model with
//!    per-endpoint fair sharing and cross-rack oversubscription.
//! 5. **DARE hook**: every scheduled map task is reported to the node's
//!    [`dare_core::Policy`] (vanilla Hadoop has none to ask); the engine
//!    evicts the decision's victims immediately (lazy deletion) and, when
//!    it says `replicate`, inserts the fetched block into HDFS when its
//!    bytes finish arriving — the replica becomes scheduler-visible one
//!    block report later.
//!
//! Model simplifications (documented in DESIGN.md): reduce tasks occupy
//! reduce slots FIFO but their shuffle is an analytic duration (per-reducer
//! bytes over the fabric + pipelined output write + merge compute) rather
//! than per-flow; local-read disk shares are fixed at read start; replica
//! disk writes are asynchronous and off the critical path (lazy deletion
//! both ways); reduce attempts are not re-executed on node failure — none
//! of these touch the map-input locality mechanism under study.

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod faults;
pub mod golden;
mod nodes;
pub mod result;
pub mod scarlett;

pub use config::{ScannerConfig, SchedulerKind, SimConfig, TelemetryConfig};
pub use engine::{Engine, StepOutcome};
pub use error::SimError;
pub use faults::{FaultEvent, FaultPlan, FaultSpec};
pub use result::SimResult;

/// Build and run one simulation, returning its results. The main entry
/// point the experiments and examples use.
///
/// ```
/// use dare_mapred::{run, SchedulerKind, SimConfig};
/// use dare_core::PolicyKind;
/// use dare_workload::swim::{synthesize, SwimParams};
///
/// let wl = synthesize("demo", &SwimParams { jobs: 20, ..SwimParams::wl1() }, 7);
/// let cfg = SimConfig::cct(PolicyKind::elephant_default(), SchedulerKind::Fifo, 7);
/// let result = run(cfg, &wl);
/// assert_eq!(result.run.jobs, 20);
/// assert!(result.run.locality <= 1.0);
/// ```
pub fn run(cfg: SimConfig, workload: &dare_workload::Workload) -> SimResult {
    Engine::new(cfg, workload).run()
}

/// Like [`run`], but invalid input and engine-level faults (a stalled
/// event queue, an orphaned flow, a violated invariant) come back as a
/// [`SimError`] instead of a panic.
pub fn try_run(cfg: SimConfig, workload: &dare_workload::Workload) -> Result<SimResult, SimError> {
    Engine::try_new(cfg, workload)?.try_run()
}
