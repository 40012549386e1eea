//! Results of one simulation run.

use dare_metrics::{FaultStats, JobOutcome, RunMetrics};

/// Everything the experiments read out of a finished run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Aggregate run metrics (locality, GMTT, slowdown, ...).
    pub run: RunMetrics,
    /// Per-job outcomes (for CDFs and significance checks).
    pub outcomes: Vec<JobOutcome>,
    /// Dynamic replicas created across all nodes — each one is a disk
    /// write, so this is also the thrashing cost axis.
    pub replicas_created: u64,
    /// Dynamic replicas evicted across all nodes.
    pub evictions: u64,
    /// Non-local tasks the sampling coin ignored (ElephantTrap only).
    pub skipped_by_sampling: u64,
    /// Replications abandoned for lack of an eviction victim.
    pub skipped_no_victim: u64,
    /// Average dynamically replicated blocks per job (Figs. 8-9).
    pub blocks_per_job: f64,
    /// Popularity-index coefficient of variation after ingest, before any
    /// job ran ("Before DARE" in Fig. 11).
    pub cv_before: f64,
    /// Popularity-index coefficient of variation at the end of the run
    /// ("After DARE").
    pub cv_after: f64,
    /// Bytes held in dynamic replicas at the end of the run.
    pub final_dynamic_bytes: u64,
    /// Remote bytes moved over the network for map input fetches.
    pub remote_bytes_fetched: u64,
    /// Stats of the proactive (Scarlett) baseline, when enabled.
    pub proactive: Option<ProactiveStats>,
    /// Map attempts re-executed because their node (or fetch source) died.
    pub reexecuted_tasks: u64,
    /// Speculative backup attempts launched.
    pub speculative_launches: u64,
    /// Task races resolved while a duplicate attempt was still running.
    pub speculative_wins: u64,
    /// Failure-detection and recovery counters (all zero without faults).
    pub faults: FaultStats,
    /// Structured event trace, when `SimConfig::record_trace` is set.
    pub trace: Option<dare_trace::Trace>,
    /// Sampled cluster-state time-series, when `SimConfig::telemetry` is
    /// set. Observation-only: everything else in this result is
    /// bit-identical with or without it.
    pub telemetry: Option<dare_telemetry::Telemetry>,
    /// Per-subsystem wall-clock dispatch timings, when
    /// `SimConfig::self_profile` is set. Wall time never feeds the
    /// simulation, so the rest of the result is unaffected.
    pub profile: Option<dare_telemetry::ProfileReport>,
    /// Logical simulation events processed: one per dispatched event,
    /// except that a batched heartbeat tick counts one per node it
    /// services (the per-node work it replaces), so throughput is
    /// comparable between batched and per-node heartbeat runs.
    pub logical_events: u64,
    /// Map-slot offers made to the scheduler: one per `pick_map` call,
    /// whether or not it launched a task.
    pub sched_offers: u64,
    /// Jobs the scheduler examined across those offers: each lookup of a
    /// job's best pending task for the offered node
    /// (`JobQueue::pick_best_for` on a job with pending work). Zero under
    /// the naive-scan reference scheduler, which does not use the index.
    pub sched_probes: u64,
    /// Flows whose rate the network model recomputed
    /// ([`dare_net::flow::FlowSim::rerates`]): only the flows sharing an
    /// endpoint with each start, cancel, completion or NIC change.
    pub flow_rerates: u64,
    /// FNV-1a fingerprint of the DFS's final physical replica map (every
    /// datanode's held blocks plus their dynamic/primary status). Two runs
    /// with identical placement end with identical fingerprints, which is
    /// how the tracing-is-observation-only differential test proves a
    /// traced run leaves the file system in the same state as an untraced
    /// one.
    pub dfs_fingerprint: u64,
}

/// Counters of the epoch-based proactive replicator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProactiveStats {
    /// Bytes pushed over the network for proactive replication — the
    /// explicit cost DARE avoids by piggybacking on existing fetches.
    pub bytes_moved: u64,
    /// Proactive replicas created.
    pub replicas_created: u64,
    /// Replicas aged out at epoch boundaries.
    pub evictions: u64,
}

impl SimResult {
    /// Re-derive [`RunMetrics::job_locality`] from the telemetry series'
    /// terminal per-job rows, replicating `dare_metrics::summarize`'s
    /// arithmetic (same values, same summation order) so the two paths
    /// agree bitwise. `None` without telemetry or with no terminal rows.
    pub fn telemetry_job_locality(&self) -> Option<f64> {
        let t = self.telemetry.as_ref()?;
        let last = t.cluster.last()?.t_us;
        let mut sum = 0.0f64;
        let mut jobs = 0usize;
        for j in t.jobs.iter().filter(|j| j.t_us == last) {
            if j.phase == dare_telemetry::JobPhase::Done {
                sum += j.node_local as f64 / j.maps_total.max(1) as f64;
                jobs += 1;
            }
        }
        if jobs == 0 {
            return None;
        }
        Some(sum / jobs as f64)
    }

    /// Re-derive the task-weighted [`RunMetrics::locality`] from the
    /// telemetry series' terminal per-job rows (bitwise equal to the
    /// summarized value). `None` without telemetry or terminal rows.
    pub fn telemetry_locality(&self) -> Option<f64> {
        let t = self.telemetry.as_ref()?;
        let last = t.cluster.last()?.t_us;
        let (mut local, mut maps, mut jobs) = (0u64, 0u64, 0usize);
        for j in t.jobs.iter().filter(|j| j.t_us == last) {
            if j.phase == dare_telemetry::JobPhase::Done {
                local += j.node_local as u64;
                maps += j.maps_total as u64;
                jobs += 1;
            }
        }
        if jobs == 0 {
            return None;
        }
        Some(local as f64 / maps.max(1) as f64)
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "jobs={} locality={:.3} gmtt={:.1}s slowdown={:.2} replicas={} evictions={} blocks/job={:.2}",
            self.run.jobs,
            self.run.locality,
            self.run.gmtt_secs,
            self.run.mean_slowdown,
            self.replicas_created,
            self.evictions,
            self.blocks_per_job,
        )
    }
}
