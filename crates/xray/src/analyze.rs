//! Trace walk, lifecycle decomposition, critical path and what-ifs.
//!
//! The walk is a single pass over the event log in recording order,
//! maintaining per-job and per-task state machines that mirror the
//! engine's lifecycle: a map task enters the pending queue at
//! `job_submitted`, each chain (non-speculative) attempt spans
//! `task_launched → task_read_done → task_committed` or
//! `task_launched → task_aborted → task_requeued`, and the job's reduce
//! barrier spans the last map commit to `job_completed`. Speculative
//! backup attempts never join the chain; they are tallied separately as
//! backup waste.
//!
//! Every bucket is computed in integer microseconds from event
//! timestamps, so the decomposition *partitions* each task's
//! `submit → commit` interval exactly — no estimation, no floats — and
//! [`XrayReport::check`] can assert conservation with `==`.

use std::collections::HashMap;

use dare_trace::{FlowKind, Trace, TraceEvent};

/// A lifecycle bucket that task wall-clock time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Waiting in the pending queue with no slot offered.
    Queue,
    /// Waiting because the delay scheduler declined an offered slot to
    /// hold out for better locality (measured from the first
    /// `delay_skip` for the job inside the wait interval).
    SchedDelay,
    /// Pulling the input block over the network (remote read), minus
    /// any recovery-interference time.
    Fetch,
    /// The portion of a fetch that overlapped at least one active
    /// re-replication (recovery) flow — contention attributable to
    /// failure handling rather than placement.
    Recovery,
    /// Reading from local disk and running the map function.
    Compute,
    /// Time burned by attempts that were later aborted, plus retry
    /// backoff between an abort and the requeue.
    Retry,
    /// The job-level reduce barrier after the last map commit.
    Reduce,
}

impl Bucket {
    /// Stable snake-case name used in CSV/JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Queue => "queue",
            Bucket::SchedDelay => "sched_delay",
            Bucket::Fetch => "fetch",
            Bucket::Recovery => "recovery",
            Bucket::Compute => "compute",
            Bucket::Retry => "retry",
            Bucket::Reduce => "reduce",
        }
    }
}

/// One contiguous segment of a job's critical path, in simulation time.
///
/// Edges tile the critical task's `submit → commit` interval plus the
/// reduce barrier with no gaps or overlaps. A remote read appears as a
/// single [`Bucket::Fetch`] edge; the recovery-interference carve-out
/// is a bucket-level number on the owning [`TaskBreakdown`], not a
/// separate edge (the overlap need not be contiguous).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpEdge {
    /// What the time was spent on.
    pub bucket: Bucket,
    /// Segment start, microseconds.
    pub start_us: u64,
    /// Segment end, microseconds.
    pub end_us: u64,
}

impl CpEdge {
    /// Segment length in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Lifecycle decomposition of one committed map task.
///
/// The six component buckets partition `[submit_us, commit_us]`
/// exactly: `queue + sched_delay + fetch + recovery + compute + retry
/// == wall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskBreakdown {
    /// Owning job id.
    pub job: u32,
    /// Map task index within the job.
    pub task: u32,
    /// Chain (non-speculative) launches, including aborted ones.
    pub launches: u32,
    /// Attempt number that committed.
    pub attempt: u32,
    /// Node the committing attempt ran on.
    pub node: u32,
    /// True if the committing attempt read its input over the network.
    pub remote: bool,
    /// Job submission time (pending-queue entry), microseconds.
    pub submit_us: u64,
    /// Commit time, microseconds.
    pub commit_us: u64,
    /// [`Bucket::Queue`] microseconds.
    pub queue_us: u64,
    /// [`Bucket::SchedDelay`] microseconds.
    pub sched_delay_us: u64,
    /// [`Bucket::Fetch`] microseconds.
    pub fetch_us: u64,
    /// [`Bucket::Recovery`] microseconds.
    pub recovery_us: u64,
    /// [`Bucket::Compute`] microseconds.
    pub compute_us: u64,
    /// [`Bucket::Retry`] microseconds.
    pub retry_us: u64,
}

impl TaskBreakdown {
    /// Measured wall clock: `commit_us - submit_us`.
    pub fn wall_us(&self) -> u64 {
        self.commit_us - self.submit_us
    }

    /// Sum of the six component buckets; equals [`Self::wall_us`] for
    /// any breakdown produced by [`analyze`].
    pub fn components_us(&self) -> u64 {
        self.queue_us
            + self.sched_delay_us
            + self.fetch_us
            + self.recovery_us
            + self.compute_us
            + self.retry_us
    }
}

/// Attribution for one completed job: per-task breakdowns, the critical
/// path through the last-committing map task, and what-if turnaround
/// estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobXray {
    /// Job id.
    pub job: u32,
    /// Map tasks in the job (from `job_submitted`).
    pub maps: u32,
    /// Submission time, microseconds.
    pub submit_us: u64,
    /// Completion time, microseconds.
    pub complete_us: u64,
    /// Measured turnaround: `complete_us - submit_us`.
    pub turnaround_us: u64,
    /// Reduce-barrier time: completion minus the last map commit.
    pub reduce_us: u64,
    /// Task index of the critical (last-committing) map task; ties
    /// break to the lowest index.
    pub critical_task: u32,
    /// Contiguous critical-path segments tiling `[submit, complete]`.
    pub cp_edges: Vec<CpEdge>,
    /// Breakdowns for every committed map task, sorted by task index.
    pub tasks: Vec<TaskBreakdown>,
    /// Estimated turnaround had every fetch been a local read
    /// (removes `fetch + recovery` from every task), microseconds.
    pub whatif_all_local_us: u64,
    /// Estimated turnaround with zero scheduler delay (removes
    /// `sched_delay`), microseconds.
    pub whatif_zero_sched_us: u64,
    /// Estimated turnaround with zero faults (removes `retry +
    /// recovery`), microseconds.
    pub whatif_zero_fault_us: u64,
}

impl JobXray {
    /// The critical task's breakdown.
    pub fn critical(&self) -> &TaskBreakdown {
        self.tasks
            .iter()
            .find(|t| t.task == self.critical_task)
            .expect("critical task is always a committed task")
    }

    /// Critical-path microseconds in `bucket` (the critical task's
    /// bucket, or [`Bucket::Reduce`] for the barrier).
    pub fn cp_bucket_us(&self, bucket: Bucket) -> u64 {
        let c = self.critical();
        match bucket {
            Bucket::Queue => c.queue_us,
            Bucket::SchedDelay => c.sched_delay_us,
            Bucket::Fetch => c.fetch_us,
            Bucket::Recovery => c.recovery_us,
            Bucket::Compute => c.compute_us,
            Bucket::Retry => c.retry_us,
            Bucket::Reduce => self.reduce_us,
        }
    }

    /// Sum of `bucket` across *all* committed tasks (task-seconds, not
    /// critical-path seconds). [`Bucket::Reduce`] returns the barrier.
    pub fn sum_bucket_us(&self, bucket: Bucket) -> u64 {
        if bucket == Bucket::Reduce {
            return self.reduce_us;
        }
        self.tasks
            .iter()
            .map(|t| match bucket {
                Bucket::Queue => t.queue_us,
                Bucket::SchedDelay => t.sched_delay_us,
                Bucket::Fetch => t.fetch_us,
                Bucket::Recovery => t.recovery_us,
                Bucket::Compute => t.compute_us,
                Bucket::Retry => t.retry_us,
                Bucket::Reduce => 0,
            })
            .sum()
    }
}

/// Aggregate totals across every completed job in a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Completed jobs aggregated.
    pub jobs: u32,
    /// Committed map tasks aggregated.
    pub tasks: u32,
    /// Sum of job turnarounds, microseconds.
    pub turnaround_us: u64,
    /// Sum of reduce barriers, microseconds.
    pub reduce_us: u64,
    /// Critical-path microseconds per bucket, summed over jobs
    /// (queue, sched_delay, fetch, recovery, compute, retry).
    pub cp_us: [u64; 6],
    /// All-task microseconds per bucket, summed over jobs (same order).
    pub sum_us: [u64; 6],
    /// Sum of all-local what-if turnarounds, microseconds.
    pub whatif_all_local_us: u64,
    /// Sum of zero-sched-delay what-if turnarounds, microseconds.
    pub whatif_zero_sched_us: u64,
    /// Sum of zero-fault what-if turnarounds, microseconds.
    pub whatif_zero_fault_us: u64,
}

/// The six component buckets in export order (reduce is separate).
pub(crate) const COMPONENT_BUCKETS: [Bucket; 6] = [
    Bucket::Queue,
    Bucket::SchedDelay,
    Bucket::Fetch,
    Bucket::Recovery,
    Bucket::Compute,
    Bucket::Retry,
];

/// Full attribution report for one trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XrayReport {
    /// Per-job attributions for completed jobs, sorted by job id.
    pub jobs: Vec<JobXray>,
    /// Jobs that failed (or never completed within the trace) and were
    /// excluded from attribution.
    pub jobs_failed: u32,
    /// Tasks of completed jobs skipped defensively (no commit seen).
    pub skipped_tasks: u32,
    /// Speculative backup launches observed.
    pub spec_launches: u32,
    /// Backup-attempt microseconds spent before their task resolved
    /// (informational; not part of any conservation identity).
    pub spec_waste_us: u64,
}

impl XrayReport {
    /// Aggregate totals across all completed jobs.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for j in &self.jobs {
            t.jobs += 1;
            t.tasks += j.tasks.len() as u32;
            t.turnaround_us += j.turnaround_us;
            t.reduce_us += j.reduce_us;
            for (i, b) in COMPONENT_BUCKETS.iter().enumerate() {
                t.cp_us[i] += j.cp_bucket_us(*b);
                t.sum_us[i] += j.sum_bucket_us(*b);
            }
            t.whatif_all_local_us += j.whatif_all_local_us;
            t.whatif_zero_sched_us += j.whatif_zero_sched_us;
            t.whatif_zero_fault_us += j.whatif_zero_fault_us;
        }
        t
    }

    /// Verify the report's structural invariants, returning the first
    /// violation as an error string:
    ///
    /// 1. every task's component buckets sum to its wall clock exactly;
    /// 2. every job's critical-path components plus the reduce barrier
    ///    equal its turnaround exactly;
    /// 3. critical-path edges tile `[submit, complete]` contiguously;
    /// 4. every what-if estimate is ≤ the measured turnaround.
    pub fn check(&self) -> Result<(), String> {
        for j in &self.jobs {
            for t in &j.tasks {
                if t.components_us() != t.wall_us() {
                    return Err(format!(
                        "job {} task {}: components {}us != wall {}us",
                        j.job,
                        t.task,
                        t.components_us(),
                        t.wall_us()
                    ));
                }
            }
            let cp: u64 = COMPONENT_BUCKETS.iter().map(|b| j.cp_bucket_us(*b)).sum();
            if cp + j.reduce_us != j.turnaround_us {
                return Err(format!(
                    "job {}: critical path {}us + reduce {}us != turnaround {}us",
                    j.job, cp, j.reduce_us, j.turnaround_us
                ));
            }
            let mut cursor = j.submit_us;
            for e in &j.cp_edges {
                if e.start_us != cursor {
                    return Err(format!(
                        "job {}: critical-path edge gap at {}us (expected {}us)",
                        j.job, e.start_us, cursor
                    ));
                }
                cursor = e.end_us;
            }
            if cursor != j.complete_us {
                return Err(format!(
                    "job {}: critical path ends at {}us, job completes at {}us",
                    j.job, cursor, j.complete_us
                ));
            }
            for (name, w) in [
                ("all_local", j.whatif_all_local_us),
                ("zero_sched", j.whatif_zero_sched_us),
                ("zero_fault", j.whatif_zero_fault_us),
            ] {
                if w > j.turnaround_us {
                    return Err(format!(
                        "job {}: what-if {} {}us exceeds turnaround {}us",
                        j.job, name, w, j.turnaround_us
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One chain (non-speculative) attempt of a task, as reconstructed
/// during the walk.
#[derive(Debug, Clone, Copy)]
struct ChainAttempt {
    /// Pending-queue entry time for this attempt (job submit for
    /// attempt 0, the preceding `task_requeued` otherwise).
    entry_us: u64,
    launch_us: u64,
    read_done_us: Option<u64>,
    /// True if launched with `local_read: false` (a fetch flow exists).
    fetch: bool,
    abort_us: Option<u64>,
    requeue_us: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct TaskState {
    /// Pending-queue entry time for the *next* chain launch.
    entry_us: u64,
    cur: Option<ChainAttempt>,
    past: Vec<ChainAttempt>,
    commit_us: Option<u64>,
    commit_attempt: u32,
    commit_node: u32,
    /// Launch times of speculative backups, for waste accounting.
    spec_starts: Vec<u64>,
}

#[derive(Debug, Clone)]
struct JobState {
    submit_us: u64,
    maps: u32,
    complete_us: Option<u64>,
    failed: bool,
    /// Timestamps of `delay_skip` events for this job, in time order.
    skips: Vec<u64>,
    tasks: Vec<TaskState>,
}

/// Split a pending-queue wait `[entry, launch]` into pure queue time
/// and scheduler delay: the delay starts at the first `delay_skip` the
/// job suffered inside the interval (the scheduler *had* a slot and
/// declined it), or never if no skip landed in the window.
fn split_queue(entry: u64, launch: u64, skips: &[u64]) -> (u64, u64) {
    let dur = launch.saturating_sub(entry);
    // First skip with entry <= t < launch.
    let idx = skips.partition_point(|&t| t < entry);
    match skips.get(idx) {
        Some(&t) if t < launch => {
            let delay = (launch - t).min(dur);
            (dur - delay, delay)
        }
        _ => (dur, 0),
    }
}

/// Total overlap of `[lo, hi]` with a set of disjoint, sorted
/// intervals.
fn overlap_us(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut acc = 0;
    for &(s, e) in intervals {
        if e <= lo {
            continue;
        }
        if s >= hi {
            break;
        }
        acc += e.min(hi) - s.max(lo);
    }
    acc
}

/// Merge raw spans into disjoint, sorted intervals.
fn merge_intervals(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        if e <= s {
            continue;
        }
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Walk a trace and produce the full attribution report.
///
/// Jobs that failed (`job_failed`) or never reached `job_completed`
/// within the trace are excluded and counted in
/// [`XrayReport::jobs_failed`]; committed tasks whose lifecycle events
/// are incomplete are skipped defensively and counted in
/// [`XrayReport::skipped_tasks`].
pub fn analyze(trace: &Trace) -> XrayReport {
    let mut jobs: Vec<(u32, JobState)> = Vec::new();
    let mut index: HashMap<u32, usize> = HashMap::new();
    let mut recovery_spans: Vec<(u64, u64)> = Vec::new();
    let mut open_recovery: HashMap<u64, u64> = HashMap::new();
    let mut report = XrayReport::default();
    let trace_end = trace.records().last().map_or(0, |r| r.time.as_micros());

    for rec in trace.records() {
        let now = rec.time.as_micros();
        match rec.event {
            TraceEvent::JobSubmitted { job, maps } => {
                index.insert(job, jobs.len());
                let mut tasks = vec![TaskState::default(); maps as usize];
                for t in &mut tasks {
                    t.entry_us = now;
                }
                jobs.push((
                    job,
                    JobState {
                        submit_us: now,
                        maps,
                        complete_us: None,
                        failed: false,
                        skips: Vec::new(),
                        tasks,
                    },
                ));
            }
            TraceEvent::JobCompleted { job, .. } => {
                if let Some(&i) = index.get(&job) {
                    jobs[i].1.complete_us = Some(now);
                }
            }
            TraceEvent::JobFailed { job } => {
                if let Some(&i) = index.get(&job) {
                    jobs[i].1.failed = true;
                }
            }
            TraceEvent::DelaySkip { job, .. } => {
                if let Some(&i) = index.get(&job) {
                    jobs[i].1.skips.push(now);
                }
            }
            TraceEvent::TaskLaunched {
                job,
                task,
                attempt: _,
                node: _,
                loc: _,
                speculative,
                local_read,
            } => {
                let Some(ts) = task_state(&mut jobs, &index, job, task) else {
                    continue;
                };
                if ts.commit_us.is_some() {
                    continue; // zombie event after the task resolved
                }
                if speculative {
                    report.spec_launches += 1;
                    ts.spec_starts.push(now);
                    continue;
                }
                ts.cur = Some(ChainAttempt {
                    entry_us: ts.entry_us,
                    launch_us: now,
                    read_done_us: None,
                    fetch: !local_read,
                    abort_us: None,
                    requeue_us: None,
                });
            }
            TraceEvent::TaskReadDone {
                job, task, node: _, ..
            } => {
                let Some(ts) = task_state(&mut jobs, &index, job, task) else {
                    continue;
                };
                if ts.commit_us.is_some() {
                    continue;
                }
                if let Some(cur) = ts.cur.as_mut() {
                    if cur.read_done_us.is_none() {
                        cur.read_done_us = Some(now);
                    }
                }
            }
            TraceEvent::TaskCommitted {
                job,
                task,
                attempt,
                node,
                ..
            } => {
                let Some(ts) = task_state(&mut jobs, &index, job, task) else {
                    continue;
                };
                if ts.commit_us.is_none() {
                    ts.commit_us = Some(now);
                    ts.commit_attempt = attempt;
                    ts.commit_node = node;
                }
            }
            TraceEvent::TaskAborted { job, task, .. } => {
                let Some(ts) = task_state(&mut jobs, &index, job, task) else {
                    continue;
                };
                if ts.commit_us.is_some() {
                    continue; // zombie abort after commit
                }
                if let Some(mut cur) = ts.cur.take() {
                    cur.abort_us = Some(now);
                    ts.past.push(cur);
                }
            }
            TraceEvent::TaskRequeued { job, task, .. } => {
                let Some(ts) = task_state(&mut jobs, &index, job, task) else {
                    continue;
                };
                if ts.commit_us.is_some() {
                    continue;
                }
                ts.entry_us = now;
                if let Some(last) = ts.past.last_mut() {
                    if last.requeue_us.is_none() {
                        last.requeue_us = Some(now);
                    }
                }
            }
            TraceEvent::FlowStarted {
                flow,
                kind: FlowKind::Recovery,
                ..
            } => {
                open_recovery.insert(flow, now);
            }
            TraceEvent::FlowFinished {
                flow,
                kind: FlowKind::Recovery,
                ..
            }
            | TraceEvent::FlowCancelled {
                flow,
                kind: FlowKind::Recovery,
            } => {
                if let Some(start) = open_recovery.remove(&flow) {
                    recovery_spans.push((start, now));
                }
            }
            _ => {}
        }
    }
    // Recovery flows still open at trace end interfere to the end.
    for (_, start) in open_recovery {
        recovery_spans.push((start, trace_end));
    }
    let recovery = merge_intervals(recovery_spans);

    for (job, js) in jobs {
        let Some(complete_us) = js.complete_us else {
            report.jobs_failed += 1;
            continue;
        };
        if js.failed {
            report.jobs_failed += 1;
            continue;
        }
        let mut tasks: Vec<TaskBreakdown> = Vec::with_capacity(js.tasks.len());
        for (ti, ts) in js.tasks.iter().enumerate() {
            let Some(commit_us) = ts.commit_us else {
                report.skipped_tasks += 1;
                continue;
            };
            let mut b = TaskBreakdown {
                job,
                task: ti as u32,
                attempt: ts.commit_attempt,
                node: ts.commit_node,
                submit_us: js.submit_us,
                commit_us,
                ..TaskBreakdown::default()
            };
            for a in &ts.past {
                b.launches += 1;
                let (q, sd) = split_queue(a.entry_us, a.launch_us, &js.skips);
                b.queue_us += q;
                b.sched_delay_us += sd;
                let until = a
                    .requeue_us
                    .or(a.abort_us)
                    .unwrap_or(a.launch_us)
                    .min(commit_us);
                b.retry_us += until.saturating_sub(a.launch_us);
            }
            match ts.cur {
                Some(a) => {
                    b.launches += 1;
                    b.remote = a.fetch;
                    let launch = a.launch_us.min(commit_us);
                    let (q, sd) = split_queue(a.entry_us, launch, &js.skips);
                    b.queue_us += q;
                    b.sched_delay_us += sd;
                    let read_end = a.read_done_us.unwrap_or(commit_us).min(commit_us);
                    if read_end > launch {
                        if a.fetch {
                            let rec = overlap_us(launch, read_end, &recovery);
                            b.recovery_us += rec;
                            b.fetch_us += (read_end - launch) - rec;
                        } else {
                            b.compute_us += read_end - launch;
                        }
                    }
                    b.compute_us += commit_us.saturating_sub(read_end);
                }
                None => {
                    // The chain never relaunched (e.g. a backup resolved
                    // the task); attribute the tail wait to the queue.
                    let (q, sd) = split_queue(ts.entry_us.min(commit_us), commit_us, &js.skips);
                    b.queue_us += q;
                    b.sched_delay_us += sd;
                }
            }
            for &s in &ts.spec_starts {
                report.spec_waste_us += commit_us.saturating_sub(s);
            }
            tasks.push(b);
        }
        if tasks.is_empty() {
            report.jobs_failed += 1;
            continue;
        }
        // Critical task: latest commit, ties to the lowest task index.
        let critical = *tasks.iter().fold(&tasks[0], |best, t| {
            if t.commit_us > best.commit_us {
                t
            } else {
                best
            }
        });
        let last_commit = critical.commit_us;
        let reduce_us = complete_us - last_commit;
        let turnaround_us = complete_us - js.submit_us;

        let mut whatif = [0u64; 3];
        for t in &tasks {
            let wall = t.wall_us();
            let walls = [
                wall - t.fetch_us - t.recovery_us,
                wall - t.sched_delay_us,
                wall - t.retry_us - t.recovery_us,
            ];
            for (w, best) in walls.iter().zip(whatif.iter_mut()) {
                *best = (*best).max(*w);
            }
        }

        let cp_edges = critical_edges(&critical, &js, complete_us);
        tasks.sort_by_key(|t| t.task);
        report.jobs.push(JobXray {
            job,
            maps: js.maps,
            submit_us: js.submit_us,
            complete_us,
            turnaround_us,
            reduce_us,
            critical_task: critical.task,
            cp_edges,
            tasks,
            whatif_all_local_us: whatif[0] + reduce_us,
            whatif_zero_sched_us: whatif[1] + reduce_us,
            whatif_zero_fault_us: whatif[2] + reduce_us,
        });
    }
    report.jobs.sort_by_key(|j| j.job);
    report
}

fn task_state<'a>(
    jobs: &'a mut [(u32, JobState)],
    index: &HashMap<u32, usize>,
    job: u32,
    task: u32,
) -> Option<&'a mut TaskState> {
    let &i = index.get(&job)?;
    jobs[i].1.tasks.get_mut(task as usize)
}

/// Rebuild the critical task's timeline as contiguous edges plus the
/// reduce barrier. Must mirror the bucket arithmetic in [`analyze`] so
/// the edges tile `[submit, complete]` exactly.
fn critical_edges(crit: &TaskBreakdown, js: &JobState, complete_us: u64) -> Vec<CpEdge> {
    let ts = &js.tasks[crit.task as usize];
    let mut edges = Vec::new();
    let mut push = |bucket, start: u64, end: u64| {
        if end > start {
            edges.push(CpEdge {
                bucket,
                start_us: start,
                end_us: end,
            });
        }
    };
    let commit = crit.commit_us;
    let queue_edges = |entry: u64, launch: u64, push: &mut dyn FnMut(Bucket, u64, u64)| {
        let (q, _sd) = split_queue(entry, launch, &js.skips);
        push(Bucket::Queue, entry, entry + q);
        push(Bucket::SchedDelay, entry + q, launch);
    };
    for a in &ts.past {
        queue_edges(a.entry_us, a.launch_us, &mut push);
        let until = a
            .requeue_us
            .or(a.abort_us)
            .unwrap_or(a.launch_us)
            .min(commit);
        push(Bucket::Retry, a.launch_us, until);
    }
    match ts.cur {
        Some(a) => {
            let launch = a.launch_us.min(commit);
            queue_edges(a.entry_us, launch, &mut push);
            let read_end = a.read_done_us.unwrap_or(commit).min(commit);
            let read_bucket = if a.fetch {
                Bucket::Fetch
            } else {
                Bucket::Compute
            };
            push(read_bucket, launch, read_end);
            push(Bucket::Compute, read_end, commit);
        }
        None => queue_edges(ts.entry_us.min(commit), commit, &mut push),
    }
    push(Bucket::Reduce, commit, complete_us);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_simcore::time::SimTime;
    use dare_trace::{FlowCtx, Loc};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn launch(job: u32, task: u32, attempt: u32, node: u32, local: bool) -> TraceEvent {
        TraceEvent::TaskLaunched {
            job,
            task,
            attempt,
            node,
            loc: if local { Loc::Node } else { Loc::Remote },
            speculative: false,
            local_read: local,
        }
    }

    /// One job, two tasks: task 0 local, task 1 remote with a fetch
    /// that overlaps a recovery flow, plus a delay skip before task 1's
    /// launch. Every bucket lands on a hand-computed value.
    #[test]
    fn decomposes_a_hand_built_trace_exactly() {
        let mut tr = Trace::default();
        tr.record(t(0), TraceEvent::JobSubmitted { job: 0, maps: 2 });
        // Task 0: launched at 10, local read done at 15, commits at 40.
        tr.record(t(10), launch(0, 0, 0, 1, true));
        tr.record(
            t(15),
            TraceEvent::TaskReadDone {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
            },
        );
        tr.record(
            t(40),
            TraceEvent::TaskCommitted {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
                dur_us: 30,
            },
        );
        // A recovery flow active [20, 32].
        tr.record(
            t(20),
            TraceEvent::FlowStarted {
                flow: 7,
                kind: FlowKind::Recovery,
                src: 2,
                dst: 3,
                bytes: 1,
                cross_rack: true,
                ctx: FlowCtx::Block { block: 9 },
            },
        );
        // Task 1: skip at 12, launches remote at 18, fetch done at 30,
        // commits at 50.
        tr.record(
            t(12),
            TraceEvent::DelaySkip {
                job: 0,
                node: 4,
                skips: 0,
                offered: Loc::Remote,
            },
        );
        tr.record(t(18), launch(0, 1, 0, 4, false));
        tr.record(
            t(30),
            TraceEvent::TaskReadDone {
                job: 0,
                task: 1,
                attempt: 0,
                node: 4,
            },
        );
        tr.record(
            t(32),
            TraceEvent::FlowFinished {
                flow: 7,
                kind: FlowKind::Recovery,
                src: 2,
                dst: 3,
                bytes: 1,
                dur_us: 12,
                ctx: FlowCtx::Block { block: 9 },
            },
        );
        tr.record(
            t(50),
            TraceEvent::TaskCommitted {
                job: 0,
                task: 1,
                attempt: 0,
                node: 4,
                dur_us: 32,
            },
        );
        tr.record(t(60), TraceEvent::JobCompleted { job: 0, dur_us: 60 });
        let report = analyze(&tr);
        report.check().expect("invariants hold");
        assert_eq!(report.jobs.len(), 1);
        let j = &report.jobs[0];
        assert_eq!(j.turnaround_us, 60);
        assert_eq!(j.reduce_us, 10);
        assert_eq!(j.critical_task, 1);

        // Task 0: queue 10 (no skip inside [0,10)... the skip at 12 is
        // after launch), local read 10..15 compute, 15..40 compute.
        let t0 = &j.tasks[0];
        assert_eq!((t0.queue_us, t0.sched_delay_us, t0.compute_us), (10, 0, 30));
        assert_eq!((t0.fetch_us, t0.recovery_us, t0.retry_us), (0, 0, 0));
        assert!(!t0.remote);

        // Task 1: wait [0,18) split by the skip at 12 → queue 12,
        // sched_delay 6; fetch [18,30] = 12us of which [20,30] = 10us
        // overlaps recovery; compute [30,50] = 20.
        let t1 = &j.tasks[1];
        assert_eq!((t1.queue_us, t1.sched_delay_us), (12, 6));
        assert_eq!((t1.fetch_us, t1.recovery_us), (2, 10));
        assert_eq!(t1.compute_us, 20);
        assert!(t1.remote);

        // Critical path = task 1 + reduce; fetch edge is one segment.
        assert_eq!(j.cp_bucket_us(Bucket::Fetch), 2);
        assert_eq!(j.cp_bucket_us(Bucket::Reduce), 10);
        let kinds: Vec<Bucket> = j.cp_edges.iter().map(|e| e.bucket).collect();
        assert_eq!(
            kinds,
            vec![
                Bucket::Queue,
                Bucket::SchedDelay,
                Bucket::Fetch,
                Bucket::Compute,
                Bucket::Reduce
            ]
        );

        // What-ifs: all-local removes task 1's 12us read → max(40,
        // 38) + 10 = 50; zero-sched removes 6 → max(40, 44) + 10 = 54;
        // zero-fault removes the 10us recovery overlap → max(40, 40) +
        // 10 = 50.
        assert_eq!(j.whatif_all_local_us, 50);
        assert_eq!(j.whatif_zero_sched_us, 54);
        assert_eq!(j.whatif_zero_fault_us, 50);
    }

    /// A task that is aborted and retried accumulates retry time; a
    /// speculative backup is excluded from the chain but counted as
    /// waste; a failed job is excluded entirely.
    #[test]
    fn handles_retries_speculation_and_failed_jobs() {
        let mut tr = Trace::default();
        tr.record(t(0), TraceEvent::JobSubmitted { job: 0, maps: 1 });
        tr.record(t(5), launch(0, 0, 0, 1, true));
        tr.record(
            t(20),
            TraceEvent::TaskAborted {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
            },
        );
        tr.record(
            t(25),
            TraceEvent::TaskRequeued {
                job: 0,
                task: 0,
                attempt: 1,
            },
        );
        tr.record(t(30), launch(0, 0, 1, 2, true));
        tr.record(
            t(33),
            TraceEvent::TaskReadDone {
                job: 0,
                task: 0,
                attempt: 1,
                node: 2,
            },
        );
        // Speculative backup at 35 that loses.
        tr.record(
            t(35),
            TraceEvent::TaskLaunched {
                job: 0,
                task: 0,
                attempt: 1,
                node: 3,
                loc: Loc::Node,
                speculative: true,
                local_read: true,
            },
        );
        tr.record(
            t(60),
            TraceEvent::TaskCommitted {
                job: 0,
                task: 0,
                attempt: 1,
                node: 2,
                dur_us: 30,
            },
        );
        tr.record(t(61), TraceEvent::JobCompleted { job: 0, dur_us: 61 });
        // A second job that fails outright.
        tr.record(t(70), TraceEvent::JobSubmitted { job: 1, maps: 1 });
        tr.record(t(90), TraceEvent::JobFailed { job: 1 });
        let report = analyze(&tr);
        report.check().expect("invariants hold");
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.jobs_failed, 1);
        assert_eq!(report.spec_launches, 1);
        assert_eq!(report.spec_waste_us, 25); // 60 - 35
        let tk = &report.jobs[0].tasks[0];
        assert_eq!(tk.launches, 2);
        // queue: [0,5) + [25,30) = 10; retry: [5,25) = 20 (abort→
        // requeue included); compute: [30,60) = 30.
        assert_eq!(tk.queue_us, 10);
        assert_eq!(tk.retry_us, 20);
        assert_eq!(tk.compute_us, 30);
        assert_eq!(tk.components_us(), tk.wall_us());
    }

    /// Events arriving after a commit (zombie aborts from a late
    /// dead-node declaration) never corrupt the decomposition.
    #[test]
    fn ignores_zombie_events_after_commit() {
        let mut tr = Trace::default();
        tr.record(t(0), TraceEvent::JobSubmitted { job: 0, maps: 1 });
        tr.record(t(2), launch(0, 0, 0, 1, true));
        tr.record(
            t(3),
            TraceEvent::TaskReadDone {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
            },
        );
        tr.record(
            t(10),
            TraceEvent::TaskCommitted {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
                dur_us: 8,
            },
        );
        // Zombie abort after the commit (node declared dead late).
        tr.record(
            t(15),
            TraceEvent::TaskAborted {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
            },
        );
        tr.record(t(20), TraceEvent::JobCompleted { job: 0, dur_us: 20 });
        let report = analyze(&tr);
        report.check().expect("invariants hold");
        let tk = &report.jobs[0].tasks[0];
        assert_eq!(tk.retry_us, 0);
        assert_eq!(tk.queue_us, 2);
        assert_eq!(tk.compute_us, 8);
    }

    #[test]
    fn split_queue_uses_first_skip_in_window() {
        assert_eq!(split_queue(0, 10, &[]), (10, 0));
        assert_eq!(split_queue(0, 10, &[4]), (4, 6));
        assert_eq!(split_queue(0, 10, &[4, 7]), (4, 6));
        assert_eq!(split_queue(5, 10, &[2]), (5, 0)); // skip before entry
        assert_eq!(split_queue(0, 10, &[12]), (10, 0)); // skip after launch
        assert_eq!(split_queue(0, 10, &[0]), (0, 10)); // skip at entry
    }

    #[test]
    fn interval_helpers_merge_and_clip() {
        let m = merge_intervals(vec![(5, 9), (0, 3), (2, 4), (9, 9)]);
        assert_eq!(m, vec![(0, 4), (5, 9)]);
        assert_eq!(overlap_us(1, 8, &m), 3 + 3); // [1,4) + [5,8)
        assert_eq!(overlap_us(4, 5, &m), 0);
    }
}
