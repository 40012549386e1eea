use super::{DfsLookup, Engine, Ev, RecoveryXfer};
use dare_dfs::BlockId;
use dare_net::flow::FlowId;
use dare_net::NodeId;
use dare_simcore::SimDuration;
use dare_trace::{FlowCtx, FlowKind, TraceEvent};

/// What destroyed a block's last physical copy — crash-path losses and
/// corruption-path losses are accounted separately.
#[derive(Debug, Clone, Copy)]
enum LossCause {
    Crash,
    Corruption,
}

impl Engine {
    /// Injected node crash: the node goes *silent*. Its running attempts
    /// become zombies (still registered, invisible to the master), flows
    /// touching it stop, and nothing else happens until the heartbeat
    /// timeout declares it dead — or it rejoins first.
    pub(super) fn on_node_crash(&mut self, node: u32, permanent: bool, down_secs: u64) {
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
        self.cancel_transfers(
            |e| &mut e.fetches,
            FlowKind::Fetch,
            |f| f.node == node,
            |_, _| {},
        );

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
                let attempt = js.attempts[task as usize];
                self.fetches.remove(&fid);
                self.cancel_flow(fid, FlowKind::Fetch);
                self.release_attempt(job, task, attempt, reader);
            } else {
                self.abort_attempt(job, task, false);
            }
        }

        // Proactive pushes to the node are cancelled; the next epoch
        // reconciles.
        self.cancel_transfers(
            |e| &mut e.proactive_flows,
            FlowKind::Proactive,
            |t| t.dst == node,
            |e, t| {
                let bytes = e.dfs.namenode().block_size(t.block);
                let inflight = &mut e.inflight_proactive[t.dst as usize];
                *inflight = inflight.saturating_sub(bytes);
            },
        );

        // Recovery transfers touching the node are cancelled and their
        // blocks put back in the queue (in flow id order, which the
        // repair-queue seq numbers depend on).
        self.cancel_transfers(
            |e| &mut e.recovery_flows,
            FlowKind::Recovery,
            |r| r.src == node || r.dst == node,
            |e, r| e.note_block_under_replicated(r.block),
        );

        if permanent {
            // The disk dies with the node. Its replicas stay *visible*
            // until declaration — the master doesn't know yet — so reads
            // routed at them fail over via `pick_source`/`has_live_source`.
            self.dfs.wipe_node(NodeId(node));
        } else {
            self.events.push(
                self.now + SimDuration::from_secs(down_secs),
                Ev::NodeRejoin(node),
            );
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
    pub(super) fn on_declare_dead(&mut self, node: u32, epoch: u32) {
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
        self.abort_zombies(node);

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

    /// Abort every attempt still registered on a crashed `node`: each is
    /// traced as aborted, and its task retried unless it already
    /// committed elsewhere or its job failed.
    fn abort_zombies(&mut self, node: u32) {
        let zombies: Vec<(u32, u32)> = std::mem::take(self.nodes.running_on_mut(node as usize));
        for (job, task) in zombies {
            // The node's own registration is already out of `running_on`,
            // so `kill_attempt` can't see it: record the abort here.
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
    }

    /// A transiently crashed node comes back: fresh epoch, full slots, a
    /// block report reconciling its surviving replicas, and heartbeats
    /// resume. Whatever ran there when it went down was lost.
    pub(super) fn on_node_rejoin(&mut self, node: u32) {
        let ni = node as usize;
        if !self.nodes.crashed(ni) {
            return;
        }
        self.nodes.set_crashed(ni, false);
        self.nodes.set_declared(ni, false);
        self.node_epoch[ni] += 1;
        self.stats.nodes_rejoined += 1;

        // The tracker restarts the node's interrupted attempts elsewhere.
        self.abort_zombies(node);
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
            self.queue
                .note_replica_added(b, NodeId(node), self.dfs.topology());
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

    /// Injected silent corruption lands: flip the replica's integrity
    /// bit. The namenode, scheduler, and policies see nothing until a
    /// read or a scrub pass checksums the replica.
    pub(super) fn on_corrupt_replica(&mut self, node: u32, block: u64) {
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
    pub(super) fn on_scrub_start(&mut self, node: u32, epoch: u32) {
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
    pub(super) fn on_scrub_done(&mut self, node: u32, epoch: u32, pass_bytes: u64) {
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
    pub(super) fn quarantine_and_repair(&mut self, node: u32, b: BlockId) {
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
        self.cancel_transfers(
            |e| &mut e.recovery_flows,
            FlowKind::Recovery,
            |r| r.src == node && r.block == b,
            |_, _| {},
        );
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
    pub(super) fn repair_targets(&self, b: BlockId, in_flight: &[u32]) -> Vec<NodeId> {
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
    pub(super) fn on_recovery_done(&mut self, rx: RecoveryXfer) {
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
}
