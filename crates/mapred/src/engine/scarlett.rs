use super::{Engine, Ev};
use crate::scarlett::{ProactiveTransfer, ScarlettState};
use dare_dfs::BlockId;
use dare_net::NodeId;
use dare_trace::{FlowCtx, FlowKind, TraceEvent};

impl Engine {
    /// Epoch boundary of the proactive baseline: re-derive desired extra
    /// replica counts from the epoch's accesses, push missing replicas over
    /// the network, and age out replicas of files that cooled down.
    pub(super) fn on_epoch(&mut self) {
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
                self.proactive_flows.insert(
                    fid,
                    ProactiveTransfer {
                        block: b,
                        src: src.0,
                        dst,
                    },
                );
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
    pub(super) fn on_proactive_done(&mut self, pt: ProactiveTransfer) {
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
}
