//! # dare-metrics — the paper's evaluation metrics
//!
//! Pure functions from simulation outcomes to the numbers Section V
//! reports:
//!
//! * **data locality** — fraction of map tasks that ran node-local
//!   (Figs. 7a, 8, 9, 10a);
//! * **GMTT** — geometric mean of job turnaround times, Eq. 1 (Figs. 7b,
//!   10b), plus the vanilla-normalized form the figures actually plot;
//! * **slowdown** — turnaround on the loaded cluster divided by the
//!   runtime on a dedicated, 100 %-local cluster (Figs. 7c, 10c);
//! * **popularity-index coefficient of variation** — the replica-placement
//!   uniformity score of Fig. 11;
//! * **blocks created per job** — the replication-cost axis of Figs. 8-9.

#![warn(missing_docs)]

use dare_simcore::stats::{coefficient_of_variation, geometric_mean, quantile};
use dare_simcore::{SimDuration, SimTime};

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// All maps and reduces finished.
    Completed,
    /// A map task exhausted its retry budget (node failures); the job was
    /// abandoned. `completed` records the abandonment time.
    Failed,
}

/// Everything recorded about one finished job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: u32,
    /// How the job ended. Failed jobs are excluded from the turnaround
    /// and locality aggregates and counted in [`RunMetrics::failed_jobs`].
    pub status: JobStatus,
    /// Submission time.
    pub arrival: SimTime,
    /// Completion time (last reduce done).
    pub completed: SimTime,
    /// Total map tasks.
    pub maps: u32,
    /// Map tasks that ran node-local.
    pub node_local: u32,
    /// Map tasks that ran rack-local (not node-local).
    pub rack_local: u32,
    /// Map tasks that read off-rack.
    pub remote: u32,
    /// Analytic runtime on a dedicated cluster with 100 % locality
    /// (the paper's slowdown denominator).
    pub dedicated: SimDuration,
}

impl JobOutcome {
    /// Turnaround time: completion − arrival.
    pub fn turnaround(&self) -> SimDuration {
        self.completed.saturating_since(self.arrival)
    }

    /// Slowdown: turnaround / dedicated runtime (≥ 1 in a well-formed sim).
    pub fn slowdown(&self) -> f64 {
        let d = self.dedicated.as_secs_f64();
        if d <= 0.0 {
            1.0
        } else {
            self.turnaround().as_secs_f64() / d
        }
    }
}

/// Aggregate metrics over one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Jobs completed.
    pub jobs: usize,
    /// Map tasks executed.
    pub maps: u64,
    /// Fraction of map tasks that ran node-local ∈ [0, 1] (task-weighted).
    pub locality: f64,
    /// Mean over jobs of each job's node-local fraction — the paper's
    /// "data locality of jobs" (Fig. 7a): small jobs count as much as
    /// whales, which is exactly why FIFO scores so poorly on small-job
    /// workloads.
    pub job_locality: f64,
    /// Fraction of map tasks at least rack-local.
    pub rack_or_better: f64,
    /// Geometric mean turnaround time, seconds (Eq. 1).
    pub gmtt_secs: f64,
    /// Mean slowdown.
    pub mean_slowdown: f64,
    /// Median job slowdown.
    pub p50_slowdown: f64,
    /// 95th-percentile job slowdown (the straggler tail DARE shortens).
    pub p95_slowdown: f64,
    /// Makespan: last completion, seconds.
    pub makespan_secs: f64,
    /// Jobs that failed (map retry budget exhausted under faults).
    /// Excluded from every other aggregate above.
    pub failed_jobs: usize,
}

/// Failure-handling and recovery counters for one run. All zero on a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Nodes declared dead after the missed-heartbeat timeout.
    pub nodes_declared_dead: u64,
    /// Nodes that rejoined after a transient outage.
    pub nodes_rejoined: u64,
    /// Blocks re-replicated by the recovery queue.
    pub blocks_re_replicated: u64,
    /// Bytes moved by recovery transfers (contending with map fetches).
    pub recovery_bytes: u64,
    /// Blocks permanently lost (every physical copy destroyed).
    pub blocks_lost: u64,
    /// Map attempts killed by faults and retried.
    pub tasks_retried: u64,
    /// Map tasks that exhausted their retry budget.
    pub tasks_failed: u64,
    /// Jobs abandoned because a task failed permanently.
    pub jobs_failed: u64,
    /// Replicas whose bytes silently rotted (injections that landed on a
    /// resident copy).
    pub replicas_corrupted: u64,
    /// Corrupt replicas detected by a failed read-path checksum.
    pub checksum_failures: u64,
    /// Corrupt replicas detected by the background block scanner.
    pub scrub_detections: u64,
    /// Detected corrupt replicas quarantined (dropped from the location
    /// map and the disk).
    pub replicas_quarantined: u64,
    /// Bytes read by completed background scrub passes.
    pub scrub_bytes: u64,
    /// Blocks permanently lost because corruption destroyed the last
    /// physical copy (disjoint from the crash-path `blocks_lost`).
    pub blocks_lost_corruption: u64,
}

impl FaultStats {
    /// Field-wise difference `self − prev`, saturating at zero. The
    /// telemetry sampler uses this to report per-interval fault activity
    /// from the engine's cumulative counters.
    pub fn delta(&self, prev: &FaultStats) -> FaultStats {
        FaultStats {
            nodes_declared_dead: self
                .nodes_declared_dead
                .saturating_sub(prev.nodes_declared_dead),
            nodes_rejoined: self.nodes_rejoined.saturating_sub(prev.nodes_rejoined),
            blocks_re_replicated: self
                .blocks_re_replicated
                .saturating_sub(prev.blocks_re_replicated),
            recovery_bytes: self.recovery_bytes.saturating_sub(prev.recovery_bytes),
            blocks_lost: self.blocks_lost.saturating_sub(prev.blocks_lost),
            tasks_retried: self.tasks_retried.saturating_sub(prev.tasks_retried),
            tasks_failed: self.tasks_failed.saturating_sub(prev.tasks_failed),
            jobs_failed: self.jobs_failed.saturating_sub(prev.jobs_failed),
            replicas_corrupted: self
                .replicas_corrupted
                .saturating_sub(prev.replicas_corrupted),
            checksum_failures: self
                .checksum_failures
                .saturating_sub(prev.checksum_failures),
            scrub_detections: self.scrub_detections.saturating_sub(prev.scrub_detections),
            replicas_quarantined: self
                .replicas_quarantined
                .saturating_sub(prev.replicas_quarantined),
            scrub_bytes: self.scrub_bytes.saturating_sub(prev.scrub_bytes),
            blocks_lost_corruption: self
                .blocks_lost_corruption
                .saturating_sub(prev.blocks_lost_corruption),
        }
    }
}

/// Reduce a set of job outcomes to run-level metrics.
///
/// Failed jobs count only toward `failed_jobs`; if *every* job failed the
/// turnaround/locality aggregates are all zero.
pub fn summarize(outcomes: &[JobOutcome]) -> RunMetrics {
    assert!(!outcomes.is_empty(), "no jobs completed");
    let failed_jobs = outcomes
        .iter()
        .filter(|o| o.status == JobStatus::Failed)
        .count();
    let done: Vec<&JobOutcome> = outcomes
        .iter()
        .filter(|o| o.status == JobStatus::Completed)
        .collect();
    if done.is_empty() {
        return RunMetrics {
            jobs: 0,
            maps: 0,
            locality: 0.0,
            job_locality: 0.0,
            rack_or_better: 0.0,
            gmtt_secs: 0.0,
            mean_slowdown: 0.0,
            p50_slowdown: 0.0,
            p95_slowdown: 0.0,
            makespan_secs: 0.0,
            failed_jobs,
        };
    }
    let maps: u64 = done.iter().map(|o| o.maps as u64).sum();
    let local: u64 = done.iter().map(|o| o.node_local as u64).sum();
    let rack: u64 = done.iter().map(|o| o.rack_local as u64).sum();
    let tts: Vec<f64> = done.iter().map(|o| o.turnaround().as_secs_f64()).collect();
    let slowdowns: Vec<f64> = done.iter().map(|o| o.slowdown()).collect();
    let job_locality = done
        .iter()
        .map(|o| o.node_local as f64 / o.maps.max(1) as f64)
        .sum::<f64>()
        / done.len() as f64;
    RunMetrics {
        jobs: done.len(),
        maps,
        locality: local as f64 / maps.max(1) as f64,
        job_locality,
        rack_or_better: (local + rack) as f64 / maps.max(1) as f64,
        gmtt_secs: geometric_mean(&tts),
        mean_slowdown: slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
        p50_slowdown: quantile(&slowdowns, 0.5),
        p95_slowdown: quantile(&slowdowns, 0.95),
        makespan_secs: done
            .iter()
            .map(|o| o.completed.as_secs_f64())
            .fold(0.0, f64::max),
        failed_jobs,
    }
}

/// GMTT of `run` normalized by the vanilla baseline (what Figs. 7b and 10b
/// plot: vanilla = 1.0, smaller is better).
pub fn normalized_gmtt(run: &RunMetrics, vanilla: &RunMetrics) -> f64 {
    if vanilla.gmtt_secs <= 0.0 {
        return 1.0;
    }
    run.gmtt_secs / vanilla.gmtt_secs
}

/// Popularity index of one data node:
/// `PI_i = Σ_j blockSize_j × blockPopularity_j` over the blocks `j`
/// resident on node `i` (Section V-A).
pub fn popularity_index(blocks: &[(u64, f64)]) -> f64 {
    blocks.iter().map(|&(bytes, pop)| bytes as f64 * pop).sum()
}

/// Coefficient of variation of the per-node popularity indices — Fig. 11's
/// uniformity measure (smaller = more uniform placement).
pub fn popularity_cv(per_node_blocks: &[Vec<(u64, f64)>]) -> f64 {
    let pis: Vec<f64> = per_node_blocks
        .iter()
        .map(|b| popularity_index(b))
        .collect();
    coefficient_of_variation(&pis)
}

/// Average dynamically replicated blocks per job (Figs. 8-9 bottom panels).
pub fn blocks_created_per_job(replicas_created: u64, jobs: usize) -> f64 {
    replicas_created as f64 / jobs.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, arr: u64, done: u64, maps: u32, local: u32, ded: u64) -> JobOutcome {
        JobOutcome {
            id,
            status: JobStatus::Completed,
            arrival: SimTime::from_secs(arr),
            completed: SimTime::from_secs(done),
            maps,
            node_local: local,
            rack_local: maps - local,
            remote: 0,
            dedicated: SimDuration::from_secs(ded),
        }
    }

    #[test]
    fn turnaround_and_slowdown() {
        let o = outcome(0, 10, 40, 4, 2, 15);
        assert_eq!(o.turnaround(), SimDuration::from_secs(30));
        assert!((o.slowdown() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_aggregates() {
        let outs = vec![outcome(0, 0, 10, 4, 4, 10), outcome(1, 0, 40, 4, 0, 10)];
        let m = summarize(&outs);
        assert_eq!(m.jobs, 2);
        assert_eq!(m.maps, 8);
        assert!((m.locality - 0.5).abs() < 1e-12);
        assert!((m.job_locality - 0.5).abs() < 1e-12);
        assert!((m.rack_or_better - 1.0).abs() < 1e-12);
        assert!((m.gmtt_secs - 20.0).abs() < 1e-9, "gm(10,40)=20");
        assert!((m.mean_slowdown - 2.5).abs() < 1e-12);
        assert!(m.p50_slowdown <= m.p95_slowdown);
        assert!(
            (m.p95_slowdown - 3.85).abs() < 1e-9,
            "p95 {}",
            m.p95_slowdown
        );
        assert_eq!(m.makespan_secs, 40.0);
    }

    #[test]
    fn normalization_against_vanilla() {
        let v = summarize(&[outcome(0, 0, 100, 1, 0, 50)]);
        let d = summarize(&[outcome(0, 0, 80, 1, 1, 50)]);
        assert!((normalized_gmtt(&d, &v) - 0.8).abs() < 1e-12);
        assert!((normalized_gmtt(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn popularity_index_and_cv() {
        // Two nodes with identical popularity mass: cv = 0.
        let uniform = vec![vec![(100u64, 1.0)], vec![(50, 2.0)]];
        assert!(popularity_cv(&uniform) < 1e-12);
        // One hot node, one cold: cv large.
        let skewed = vec![vec![(100u64, 10.0)], vec![(100, 0.1)]];
        assert!(popularity_cv(&skewed) > 0.9);
        assert_eq!(popularity_index(&[(10, 0.5), (20, 0.25)]), 10.0);
    }

    #[test]
    fn zero_dedicated_slowdown_is_one() {
        let o = JobOutcome {
            dedicated: SimDuration::ZERO,
            ..outcome(0, 0, 5, 1, 1, 1)
        };
        assert_eq!(o.slowdown(), 1.0);
    }

    #[test]
    fn failed_jobs_are_excluded_from_aggregates() {
        let mut failed = outcome(1, 0, 200, 4, 0, 10);
        failed.status = JobStatus::Failed;
        let outs = vec![outcome(0, 0, 10, 4, 4, 10), failed];
        let m = summarize(&outs);
        assert_eq!(m.jobs, 1, "only the completed job counts");
        assert_eq!(m.failed_jobs, 1);
        assert_eq!(m.maps, 4);
        assert!((m.locality - 1.0).abs() < 1e-12);
        assert!((m.gmtt_secs - 10.0).abs() < 1e-9);
        assert_eq!(m.makespan_secs, 10.0, "failed job does not extend makespan");

        let mut f2 = outcome(0, 0, 50, 2, 0, 10);
        f2.status = JobStatus::Failed;
        let all_failed = summarize(&[f2]);
        assert_eq!(all_failed.jobs, 0);
        assert_eq!(all_failed.failed_jobs, 1);
        assert_eq!(all_failed.gmtt_secs, 0.0);
    }

    #[test]
    fn fault_stats_default_is_zero() {
        let s = FaultStats::default();
        assert_eq!(s.nodes_declared_dead + s.nodes_rejoined, 0);
        assert_eq!(s.blocks_re_replicated + s.recovery_bytes + s.blocks_lost, 0);
        assert_eq!(s.tasks_retried + s.tasks_failed + s.jobs_failed, 0);
    }

    #[test]
    fn fault_stats_delta_is_fieldwise_and_saturating() {
        let prev = FaultStats {
            nodes_declared_dead: 1,
            blocks_re_replicated: 3,
            recovery_bytes: 100,
            ..Default::default()
        };
        let now = FaultStats {
            nodes_declared_dead: 2,
            blocks_re_replicated: 7,
            recovery_bytes: 50, // regressed counter saturates to 0
            tasks_retried: 4,
            replicas_corrupted: 3,
            scrub_bytes: 1024,
            ..Default::default()
        };
        let d = now.delta(&prev);
        assert_eq!(d.nodes_declared_dead, 1);
        assert_eq!(d.blocks_re_replicated, 4);
        assert_eq!(d.recovery_bytes, 0);
        assert_eq!(d.tasks_retried, 4);
        assert_eq!(d.replicas_corrupted, 3);
        assert_eq!(d.scrub_bytes, 1024);
        assert_eq!(now.delta(&now), FaultStats::default());
    }

    #[test]
    fn blocks_per_job() {
        assert!((blocks_created_per_job(100, 50) - 2.0).abs() < 1e-12);
        assert_eq!(blocks_created_per_job(5, 0), 5.0);
    }
}
