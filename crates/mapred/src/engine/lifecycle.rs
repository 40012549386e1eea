use super::observe::trace_loc;
use super::{DfsLookup, Engine, Ev, Fetch};
use crate::config::SpeculationConfig;
use dare_core::{PolicyCtx, PolicyKind, ReplicationDecision};
use dare_dfs::BlockId;
use dare_net::{NodeId, MB};
use dare_sched::{locality::classify, JobId, Locality, PendingTask, TaskId};
use dare_simcore::{SimDuration, SimTime};
use dare_trace::{FlowCtx, FlowKind, TraceEvent};

impl Engine {
    pub(super) fn on_job_arrival(&mut self, j: u32) {
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

    pub(super) fn on_heartbeat(&mut self, node: u32, periodic: bool, epoch: u32) {
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
                self.scheduler
                    .pick_map(&mut self.queue, NodeId(node), &lookup, self.dfs.topology())
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
    pub(super) fn on_heartbeat_tick(&mut self) {
        let n = self.nodes.len();
        self.logical_events += n as u64;
        self.process_promotions();
        let may_assign = self.queue.has_pending() || self.cfg.speculation.is_some();
        if may_assign {
            for node in 0..n {
                if self.nodes.free_map(node) > 0 && self.node_up(node) {
                    self.service_map_slots(node as u32);
                }
            }
        }
        self.fill_reduce_slots();
        self.events
            .push(self.now + self.cfg.heartbeat, Ev::HeartbeatTick);
    }

    /// Start a map task on `node` reading `block`. `speculative` marks a
    /// backup attempt: it skips locality accounting (the original attempt
    /// already recorded the task) but still drives the DARE policy, since
    /// a backup is a genuinely scheduled map task.
    fn launch_map(&mut self, node: u32, job: u32, task: u32, block: BlockId, speculative: bool) {
        self.spec_due = None;
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
                    self.release_attempt(job, task, attempt, node);
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

    /// Try to launch one speculative backup attempt on `node`. Returns true
    /// when a backup was launched (the caller may offer the slot again).
    fn try_speculate(&mut self, node: u32) -> bool {
        let Some(spec) = self.cfg.speculation else {
            return false;
        };
        if !self.node_up(node as usize) || self.nodes.free_map(node as usize) == 0 {
            return false;
        }
        // A fruitless scan left a due time before which no job can pass
        // the straggler check below, and nothing it reads has changed
        // since: the scan would find nothing and tighten nothing.
        if self.spec_due.is_some_and(|due| self.now < due) {
            #[cfg(any(test, debug_assertions))]
            for ji in 0..self.queue.len() {
                if let Some((job, threshold)) = self.spec_threshold(spec, ji) {
                    let oldest = self.jobs[job as usize].oldest_live_start;
                    assert!(
                        self.under_threshold(oldest, threshold),
                        "job {job} may speculate at t={} before the due time",
                        self.now
                    );
                }
            }
            return false;
        }
        // A job is speculation-eligible when all its maps are handed out
        // but some attempts straggle well past the job's average.
        // `oldest_live_start` lower-bounds every live attempt's start, so
        // a job whose oldest attempt is under threshold needs no scan.
        let mut due = SimTime::MAX;
        for ji in 0..self.queue.len() {
            let Some((job, threshold)) = self.spec_threshold(spec, ji) else {
                continue;
            };
            let js = &self.jobs[job as usize];
            if self.under_threshold(js.oldest_live_start, threshold) {
                // Even the oldest attempt is not straggling, nor will it
                // be before this instant (rounded down by a µs).
                let wait = SimDuration::from_micros((threshold * 1e6) as u64);
                due = due.min(js.oldest_live_start + wait);
                continue;
            }
            // Passing the check makes the next offer scan again: whether
            // a straggler can be backed up depends on the offered node.
            due = due.min(self.now);
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
        self.spec_due = Some(due);
        false
    }

    /// Speculation threshold, in seconds, of the active job at queue
    /// position `ji`, with its id: `None` while the job still has pending
    /// maps, runs none, or has no completed map to average.
    fn spec_threshold(&self, spec: SpeculationConfig, ji: usize) -> Option<(u32, f64)> {
        let j = &self.queue.jobs()[ji];
        if !j.pending().is_empty() || j.running_maps() == 0 {
            return None;
        }
        let js = &self.jobs[j.id.0 as usize];
        if js.maps_done == 0 {
            return None; // no baseline duration yet
        }
        let avg = js.completed_secs / js.maps_done as f64;
        Some((
            j.id.0,
            (avg * spec.slowdown_factor).max(spec.min_elapsed_secs),
        ))
    }

    /// True when an attempt started at `start` has run no longer than
    /// `threshold` seconds: it is not straggling.
    fn under_threshold(&self, start: SimTime, threshold: f64) -> bool {
        self.now.saturating_since(start).as_secs_f64() <= threshold
    }

    pub(super) fn on_local_read_done(&mut self, node: u32, job: u32, task: u32, attempt: u32) {
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
    pub(super) fn task_compute(&mut self, job: u32, node: u32) -> SimDuration {
        let base = self.jobs[job as usize].map_compute;
        base.mul_f64(self.jitter_rng.uniform_range(0.9, 1.1) * self.slow_factor[node as usize])
    }

    pub(super) fn on_compute_done(&mut self, node: u32, job: u32, task: u32, attempt: u32) {
        self.spec_due = None;
        if self.nodes.crashed(node as usize) {
            return; // zombie: the node went silent while computing
        }
        if self.jobs[job as usize].attempts[task as usize] != attempt {
            return; // stale completion from an aborted attempt
        }
        self.unregister_attempt(job, task, node);
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

    pub(super) fn on_reduce_done(&mut self, node: u32, job: u32) {
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

    /// Kill a task's live attempts: bump the attempt id so in-flight
    /// events go stale, cancel its fetch flows, refund surviving runners'
    /// slots, and roll back the attempt's locality accounting.
    fn kill_attempt(&mut self, job: u32, task: u32) {
        self.spec_due = None;
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
        self.cancel_transfers(
            |e| &mut e.fetches,
            FlowKind::Fetch,
            |f| f.job == job && f.task == task,
            |e, f| e.release_attempt(job, task, aborted, f.node),
        );
        // Attempts in their read/compute phase. Only nodes running the
        // task are written (and so marked); a node never runs two
        // attempts of one task.
        for n in 0..self.nodes.len() as u32 {
            if self.nodes.running_on(n as usize).contains(&(job, task)) {
                self.release_attempt(job, task, aborted, n);
            }
        }
        self.jobs[job as usize].live_attempts[task as usize] = 0;
    }

    /// Abort one task attempt (fault path) and schedule a retry — or fail
    /// the whole job once the retry budget is exhausted. `forced_backoff`
    /// delays even the first retry, for failures that would otherwise
    /// respin instantly (e.g. no live fetch source anywhere).
    pub(super) fn abort_attempt(&mut self, job: u32, task: u32, forced_backoff: bool) {
        self.kill_attempt(job, task);
        let js = &self.jobs[job as usize];
        if js.failed {
            return;
        }
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

    /// Drop the runner registration of `(job, task)` on `node`, refunding
    /// its map slot if the node is up. No-op if the node runs no attempt
    /// of the task.
    fn unregister_attempt(&mut self, job: u32, task: u32, node: u32) {
        let ni = node as usize;
        let running = self.nodes.running_on(ni);
        let Some(p) = running.iter().position(|&(j, t)| j == job && t == task) else {
            return;
        };
        self.nodes.running_on_mut(ni).remove(p);
        if self.node_up(ni) {
            *self.nodes.free_map_mut(ni) += 1;
        }
    }

    /// Release one attempt of a task on `node` without a retry:
    /// unregister it, count it out of the task's live attempts and trace
    /// the abort.
    pub(super) fn release_attempt(&mut self, job: u32, task: u32, attempt: u32, node: u32) {
        self.spec_due = None;
        self.unregister_attempt(job, task, node);
        let live = &mut self.jobs[job as usize].live_attempts[task as usize];
        *live = live.saturating_sub(1);
        self.emit(TraceEvent::TaskAborted {
            job,
            task,
            attempt,
            node,
        });
    }

    /// Put the task back in the scheduler's pending set (and the locality
    /// index, under the block's current locations).
    fn requeue_now(&mut self, job: u32, task: u32) {
        self.spec_due = None;
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

    pub(super) fn on_task_retry(&mut self, job: u32, task: u32, attempt: u32) {
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
        self.spec_due = None;
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
}

/// Modeled shuffle + reduce duration: each of the `reduces` reducers pulls
/// its share of the job's output over the fabric (at roughly half the mean
/// NIC rate, reflecting the many-to-many shuffle), spends half a map's
/// compute merging it, then commits its partition through an HDFS write
/// pipeline whose steady-state rate is the min of mean disk and NIC rates
/// (the replication chain re-sends the bytes `replication - 1` times
/// through NICs of that rate).
pub(super) fn reduce_duration(
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
