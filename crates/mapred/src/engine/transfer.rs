use super::{Engine, Ev, Fetch, RecoveryXfer};
use crate::scarlett::ProactiveTransfer;
use dare_dfs::BlockId;
use dare_net::flow::FlowId;
use dare_net::NodeId;
use dare_simcore::FxHashMap;
use dare_trace::{FlowCtx, FlowKind, TraceEvent};

/// A transfer the flow model completed, taken out of its table.
enum Finished {
    Proactive(ProactiveTransfer),
    Recovery(RecoveryXfer),
    Fetch(Fetch),
}

impl Engine {
    /// Choose the replica a remote reader fetches from: same-rack replicas
    /// preferred, ties broken uniformly at random. `None` when no live
    /// node can serve the block (every visible replica is on a crashed or
    /// declared-dead node).
    pub(super) fn pick_source(&mut self, block: BlockId, reader: NodeId) -> Option<NodeId> {
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
    pub(super) fn has_live_source(&self, block: BlockId, reader: NodeId) -> bool {
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
    pub(super) fn cancel_flow(&mut self, fid: FlowId, kind: FlowKind) {
        self.flows.cancel(self.now, fid);
        self.batch_cancelled.push(fid.0);
        self.emit(TraceEvent::FlowCancelled { flow: fid.0, kind });
    }

    /// Tear down every in-flight transfer of `table` that `hit` selects,
    /// in ascending flow id (hash-map order is not deterministic): drop
    /// its record, cancel its flow, then hand the record to `then`.
    pub(super) fn cancel_transfers<T>(
        &mut self,
        table: fn(&mut Self) -> &mut FxHashMap<FlowId, T>,
        kind: FlowKind,
        hit: impl Fn(&T) -> bool,
        mut then: impl FnMut(&mut Self, T),
    ) {
        let mut fids: Vec<FlowId> = table(self)
            .iter()
            .filter(|(_, x)| hit(x))
            .map(|(&fid, _)| fid)
            .collect();
        fids.sort_unstable();
        for fid in fids {
            if let Some(x) = table(self).remove(&fid) {
                self.cancel_flow(fid, kind);
                then(self, x);
            }
        }
    }

    pub(super) fn schedule_netcheck(&mut self) {
        if let Some((t, _)) = self.flows.next_completion() {
            let t = t.max(self.now);
            if self.next_netcheck.is_none_or(|cur| t < cur) {
                self.events.push(t, Ev::NetCheck);
                self.next_netcheck = Some(t);
            }
        }
    }

    pub(super) fn on_net_check(&mut self) -> Result<(), crate::SimError> {
        self.next_netcheck = None;
        // The batch stays in the flow model's reusable buffer; the loop
        // below starts and cancels flows but never collects again.
        let done = self.flows.collect_completed(self.now).len();
        self.batch_cancelled.clear();
        for i in 0..done {
            let (fid, started) = self.flows.completed_starts()[i];
            let finished = if let Some(pt) = self.proactive_flows.remove(&fid) {
                Finished::Proactive(pt)
            } else if let Some(rx) = self.recovery_flows.remove(&fid) {
                Finished::Recovery(rx)
            } else if let Some(f) = self.fetches.remove(&fid) {
                Finished::Fetch(f)
            } else if self.batch_cancelled.contains(&fid.0) {
                // A completion earlier in this batch tore the flow down
                // (job failure aborting a sibling fetch, quarantine
                // cancelling a tainted repair): its record is gone but
                // the fid was already drained into this batch.
                continue;
            } else {
                // An untracked disappearance is bookkeeping drift.
                return Err(crate::SimError::OrphanFlow {
                    now: self.now,
                    flow: fid.0,
                });
            };
            if self.tracer.is_some() {
                let (kind, src, dst, block, ctx) = match finished {
                    Finished::Proactive(pt) => {
                        let ctx = FlowCtx::Block { block: pt.block.0 };
                        (FlowKind::Proactive, pt.src, pt.dst, pt.block, ctx)
                    }
                    Finished::Recovery(rx) => {
                        let ctx = FlowCtx::Block { block: rx.block.0 };
                        (FlowKind::Recovery, rx.src, rx.dst, rx.block, ctx)
                    }
                    Finished::Fetch(f) => {
                        let block = self.jobs[f.job as usize].blocks[f.task as usize];
                        let ctx = FlowCtx::Fetch {
                            job: f.job,
                            task: f.task,
                            attempt: f.attempt,
                        };
                        (FlowKind::Fetch, f.src, f.node, block, ctx)
                    }
                };
                self.emit(TraceEvent::FlowFinished {
                    flow: fid.0,
                    kind,
                    src,
                    dst,
                    bytes: self.dfs.namenode().block_size(block),
                    dur_us: self.now.saturating_since(started).as_micros(),
                    ctx,
                });
            }
            match finished {
                Finished::Proactive(pt) => self.on_proactive_done(pt),
                Finished::Recovery(rx) => self.on_recovery_done(rx),
                Finished::Fetch(f) => self.on_fetch_done(f),
            }
        }
        self.batch_cancelled.clear();
        self.schedule_netcheck();
        Ok(())
    }

    /// A remote input fetch finished: verify the bytes, keep them as a
    /// dynamic replica if the policy asked to, and start the compute
    /// phase.
    fn on_fetch_done(&mut self, f: Fetch) {
        let block = self.jobs[f.job as usize].blocks[f.task as usize];
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
            let js = &self.jobs[f.job as usize];
            let current = js.attempts[f.task as usize] == f.attempt;
            if current && !js.done[f.task as usize] && !js.failed {
                self.abort_attempt(f.job, f.task, false);
            } else {
                // Superseded (a backup or the original already
                // committed, or the job failed): release this reader.
                self.release_attempt(f.job, f.task, f.attempt, f.node);
            }
            return;
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
            return; // attempt aborted by a failure while fetching
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
}
