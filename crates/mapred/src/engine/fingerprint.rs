use super::{Engine, Ev};
use dare_net::flow::FlowId;
use dare_simcore::fnv::fnv1a_u64;
use dare_simcore::SimTime;

impl Engine {
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
        Ev::NodeGray { node, disk, nic } => fold(17, &[node as u64, disk.to_bits(), nic.to_bits()]),
        Ev::CorruptReplica { node, block } => fold(14, &[node as u64, block]),
        Ev::ScrubStart { node, epoch } => fold(15, &[node as u64, epoch as u64]),
        Ev::ScrubDone {
            node,
            epoch,
            pass_bytes,
        } => fold(16, &[node as u64, epoch as u64, pass_bytes]),
    }
}
