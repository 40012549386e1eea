//! The name node: file and block metadata, replica locations, and the
//! heartbeat-delayed visibility of dynamic replicas.
//!
//! The paper's patch extends the `DataNodeProtocol` with a `DNA_DYNREPL`
//! operation: a data node that replicated a block informs the name node
//! during a heartbeat, after which the scheduler can exploit the new
//! replica. We model that pipeline with a pending-report queue: a dynamic
//! replica inserted at time *t* becomes *visible* (schedulable) at
//! *t + report delay*, while the inserting node itself can of course read
//! it locally right away.

use crate::ids::{BlockId, BlockMeta, FileId, FileMeta};
use dare_net::NodeId;
use dare_simcore::SimTime;

/// Pending `DNA_DYNREPL` notification.
#[derive(Debug, Clone, Copy)]
struct PendingReport {
    visible_at: SimTime,
    block: BlockId,
    node: NodeId,
}

/// Master metadata server.
#[derive(Debug, Clone, Default)]
pub struct NameNode {
    files: Vec<FileMeta>,
    blocks: Vec<BlockMeta>,
    /// Primary replica locations per block (placement-policy output).
    primary: Vec<Vec<NodeId>>,
    /// Dynamic replica locations per block, already reported (visible).
    dynamic: Vec<Vec<NodeId>>,
    /// Merged scheduler view per block: primary order, then visible dynamic
    /// replicas not already primary, in report order. Maintained
    /// incrementally on every replica mutation so [`NameNode::locations`]
    /// is a borrow, not an allocation — this lookup is the scheduler's
    /// hottest path.
    merged: Vec<Vec<NodeId>>,
    pending: Vec<PendingReport>,
    /// No pending report is visible before this time, so
    /// [`NameNode::process_reports`] returns at once when called earlier.
    /// Lowered on every enqueue and recomputed by every scan; removals
    /// leave it stale-low, which costs one scan. The default (zero)
    /// forces the first scan.
    next_due: SimTime,
    /// Reusable buffer of (block, node) pairs promoted to visibility by the
    /// most recent [`NameNode::process_reports`] call.
    promoted: Vec<(BlockId, NodeId)>,
    /// Total dynamic-replica reports processed (diagnostics).
    pub reports_processed: u64,
}

impl NameNode {
    /// Empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a file and its blocks. `block_locs[i]` holds the primary
    /// replica targets of block `i`. Returns the new file's id.
    pub fn register_file(
        &mut self,
        name: String,
        size_bytes: u64,
        block_sizes: Vec<u64>,
        block_locs: Vec<Vec<NodeId>>,
        created: SimTime,
        is_system: bool,
    ) -> FileId {
        assert_eq!(block_sizes.len(), block_locs.len());
        let fid = FileId(self.files.len() as u32);
        let mut blocks = Vec::with_capacity(block_sizes.len());
        for (sz, locs) in block_sizes.into_iter().zip(block_locs) {
            assert!(!locs.is_empty(), "block with zero replicas");
            let bid = BlockId(self.blocks.len() as u64);
            self.blocks.push(BlockMeta {
                file: fid,
                size_bytes: sz,
            });
            self.merged.push(locs.clone());
            self.primary.push(locs);
            self.dynamic.push(Vec::new());
            blocks.push(bid);
        }
        self.files.push(FileMeta {
            id: fid,
            name,
            size_bytes,
            blocks,
            created,
            is_system,
        });
        fid
    }

    /// Number of files.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// Number of blocks across all files.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// File metadata.
    pub fn file(&self, f: FileId) -> &FileMeta {
        &self.files[f.idx()]
    }

    /// All files (ascending id).
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// Block metadata (owning file + size) — the INode back-pointer.
    pub fn block(&self, b: BlockId) -> BlockMeta {
        self.blocks[b.idx()]
    }

    /// Owning file of a block.
    pub fn file_of(&self, b: BlockId) -> FileId {
        self.blocks[b.idx()].file
    }

    /// Bytes in a block.
    pub fn block_size(&self, b: BlockId) -> u64 {
        self.blocks[b.idx()].size_bytes
    }

    /// Scheduler-visible replica locations: primary plus *reported* dynamic
    /// replicas, deduplicated, deterministic order. Borrows the maintained
    /// merged list — zero allocation per query.
    pub fn locations(&self, b: BlockId) -> &[NodeId] {
        &self.merged[b.idx()]
    }

    /// Rebuild one block's merged list from scratch. Called on the rare
    /// primary-set mutations (failure recovery, quarantine) where a
    /// node may shift between the primary and dynamic segments; the hot
    /// dynamic insert/evict paths update the list incrementally instead.
    fn rebuild_merged(&mut self, idx: usize) {
        let m = &mut self.merged[idx];
        m.clear();
        m.extend_from_slice(&self.primary[idx]);
        for &n in &self.dynamic[idx] {
            if !self.primary[idx].contains(&n) {
                m.push(n);
            }
        }
    }

    /// Blocks `node` is a scheduler-visible location of, ascending. One
    /// pass over every block's location list.
    pub fn blocks_located_at(&self, node: NodeId) -> impl Iterator<Item = BlockId> + '_ {
        self.merged
            .iter()
            .enumerate()
            .filter(move |(_, locs)| locs.contains(&node))
            .map(|(i, _)| BlockId(i as u64))
    }

    /// Primary locations only.
    pub fn primary_locations(&self, b: BlockId) -> &[NodeId] {
        &self.primary[b.idx()]
    }

    /// Visible dynamic locations only.
    pub fn dynamic_locations(&self, b: BlockId) -> &[NodeId] {
        &self.dynamic[b.idx()]
    }

    /// Total visible replica count of a block.
    pub fn replica_count(&self, b: BlockId) -> usize {
        self.merged[b.idx()].len()
    }

    /// Queue a `DNA_DYNREPL` notification: `node` now holds a dynamic
    /// replica of `block`; the scheduler learns of it at `visible_at`.
    pub fn enqueue_dynamic_report(&mut self, visible_at: SimTime, block: BlockId, node: NodeId) {
        self.next_due = self.next_due.min(visible_at);
        self.pending.push(PendingReport {
            visible_at,
            block,
            node,
        });
    }

    /// Promote every pending report whose heartbeat has arrived by `now`.
    /// Returns the (block, node) pairs that became scheduler-visible, so
    /// callers maintaining derived indexes (the scheduler's locality index)
    /// can update incrementally. The slice is a reusable internal buffer,
    /// valid until the next call.
    pub fn process_reports(&mut self, now: SimTime) -> &[(BlockId, NodeId)] {
        self.promoted.clear();
        if now < self.next_due {
            return &self.promoted;
        }
        self.next_due = SimTime::MAX;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].visible_at <= now {
                let r = self.pending.swap_remove(i);
                let d = &mut self.dynamic[r.block.idx()];
                if !d.contains(&r.node) && !self.primary[r.block.idx()].contains(&r.node) {
                    d.push(r.node);
                    // Not primary and not already dynamic, hence absent
                    // from the merged list: append keeps merged order
                    // identical to a full rebuild.
                    self.merged[r.block.idx()].push(r.node);
                    self.promoted.push((r.block, r.node));
                }
                self.reports_processed += 1;
            } else {
                self.next_due = self.next_due.min(self.pending[i].visible_at);
                i += 1;
            }
        }
        &self.promoted
    }

    /// Remove a dynamic replica of `block` at `node` from the scheduling
    /// view (eviction), including any still-pending report for it. Returns
    /// true when a *visible* replica was removed (i.e. the scheduler's view
    /// of the block changed).
    pub fn remove_dynamic(&mut self, block: BlockId, node: NodeId) -> bool {
        let before = self.dynamic[block.idx()].len();
        self.dynamic[block.idx()].retain(|&n| n != node);
        let was_visible = self.dynamic[block.idx()].len() != before;
        if was_visible && !self.primary[block.idx()].contains(&node) {
            self.merged[block.idx()].retain(|&n| n != node);
        }
        self.pending
            .retain(|r| !(r.block == block && r.node == node));
        was_visible
    }

    /// Number of reports still in flight.
    pub fn pending_reports(&self) -> usize {
        self.pending.len()
    }

    /// Every in-flight report as `(visible_at, block, node)`, sorted —
    /// the canonical view the extended state fingerprint hashes. The
    /// internal queue order is insertion-dependent (swap_remove), so
    /// callers get a normalized copy rather than a borrow.
    pub fn pending_report_entries(&self) -> Vec<(SimTime, BlockId, NodeId)> {
        let mut v: Vec<(SimTime, BlockId, NodeId)> = self
            .pending
            .iter()
            .map(|r| (r.visible_at, r.block, r.node))
            .collect();
        v.sort_unstable();
        v
    }

    /// Remove *all* replicas hosted on a failed node and return the blocks
    /// that are now under-replicated relative to `target_replicas`
    /// (availability path; dynamic replicas count as first-order replicas).
    pub fn fail_node(&mut self, node: NodeId, target_replicas: u32) -> Vec<BlockId> {
        let mut under = Vec::new();
        for idx in 0..self.blocks.len() {
            let had = self.primary[idx].contains(&node) || self.dynamic[idx].contains(&node);
            self.primary[idx].retain(|&n| n != node);
            self.dynamic[idx].retain(|&n| n != node);
            if had {
                // Dropping one node preserves the relative order of the
                // survivors in both segments, so a retain matches a rebuild.
                self.merged[idx].retain(|&n| n != node);
                let b = BlockId(idx as u64);
                if self.replica_count(b) < target_replicas as usize {
                    under.push(b);
                }
            }
        }
        self.pending.retain(|r| r.node != node);
        under
    }

    /// Add a primary replica location (re-replication after failure).
    pub fn add_primary_location(&mut self, block: BlockId, node: NodeId) {
        let p = &mut self.primary[block.idx()];
        if !p.contains(&node) {
            p.push(node);
            self.rebuild_merged(block.idx());
        }
    }

    /// Remove a primary replica location (a quarantined corrupt replica).
    pub fn remove_primary_location(&mut self, block: BlockId, node: NodeId) {
        self.primary[block.idx()].retain(|&n| n != node);
        self.rebuild_merged(block.idx());
    }

    /// Re-register a *dynamic* replica immediately (no report delay) —
    /// the block-report path of a node rejoining after a transient
    /// outage: the bytes never left its disk, so the replica is
    /// schedulable as soon as the report lands. Returns false when the
    /// node is already a known location of the block.
    pub fn restore_dynamic(&mut self, block: BlockId, node: NodeId) -> bool {
        let idx = block.idx();
        if self.primary[idx].contains(&node) || self.dynamic[idx].contains(&node) {
            return false;
        }
        self.dynamic[idx].push(node);
        // Absent from both segments, hence absent from merged: append
        // matches a full rebuild.
        self.merged[idx].push(node);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nn_with_one_file() -> (NameNode, FileId) {
        let mut nn = NameNode::new();
        let f = nn.register_file(
            "data/part-0".into(),
            300,
            vec![128, 128, 44],
            vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(1), NodeId(2)],
                vec![NodeId(2), NodeId(0)],
            ],
            SimTime::from_secs(5),
            false,
        );
        (nn, f)
    }

    #[test]
    fn register_and_lookup() {
        let (nn, f) = nn_with_one_file();
        assert_eq!(nn.num_files(), 1);
        assert_eq!(nn.num_blocks(), 3);
        let meta = nn.file(f);
        assert_eq!(meta.num_blocks(), 3);
        assert_eq!(meta.created, SimTime::from_secs(5));
        let b0 = meta.blocks[0];
        assert_eq!(nn.file_of(b0), f);
        assert_eq!(nn.block_size(b0), 128);
        assert_eq!(nn.locations(b0), vec![NodeId(0), NodeId(1)]);
        assert_eq!(nn.replica_count(b0), 2);
    }

    #[test]
    fn dynamic_replica_visible_only_after_report() {
        let (mut nn, f) = nn_with_one_file();
        let b = nn.file(f).blocks[0];
        nn.enqueue_dynamic_report(SimTime::from_secs(10), b, NodeId(5));
        nn.process_reports(SimTime::from_secs(9));
        assert_eq!(nn.locations(b).len(), 2, "not visible yet");
        assert_eq!(nn.pending_reports(), 1);
        nn.process_reports(SimTime::from_secs(10));
        assert_eq!(nn.locations(b), vec![NodeId(0), NodeId(1), NodeId(5)]);
        assert_eq!(nn.dynamic_locations(b), &[NodeId(5)]);
        assert_eq!(nn.pending_reports(), 0);
        assert_eq!(nn.reports_processed, 1);
    }

    #[test]
    fn reports_not_yet_due_return_at_once_then_promote_in_scan_order() {
        let (mut nn, f) = nn_with_one_file();
        let b = nn.file(f).blocks[0]; // primaries 0, 1
        for (secs, node) in [(10, 5), (5, 6), (7, 7), (5, 8)] {
            nn.enqueue_dynamic_report(SimTime::from_secs(secs), b, NodeId(node));
        }
        assert!(nn.process_reports(SimTime::from_secs(4)).is_empty());
        assert_eq!(nn.pending_reports(), 4);
        assert_eq!(nn.reports_processed, 0);
        // The swap-remove scan's order: each due report is replaced by
        // the last pending one, which is examined next.
        let promoted = nn.process_reports(SimTime::from_secs(7)).to_vec();
        assert_eq!(promoted, [(b, NodeId(6)), (b, NodeId(8)), (b, NodeId(7))]);
        assert_eq!(nn.pending_reports(), 1);
        assert_eq!(nn.reports_processed, 3);
        assert!(nn.process_reports(SimTime::from_secs(9)).is_empty());
        assert_eq!(nn.pending_reports(), 1);
        assert_eq!(nn.process_reports(SimTime::from_secs(10)), [(b, NodeId(5))]);
        assert_eq!(nn.pending_reports(), 0);
        assert_eq!(nn.reports_processed, 4);
    }

    #[test]
    fn duplicate_and_primary_overlapping_reports_are_dropped() {
        let (mut nn, f) = nn_with_one_file();
        let b = nn.file(f).blocks[0];
        nn.enqueue_dynamic_report(SimTime::ZERO, b, NodeId(5));
        nn.enqueue_dynamic_report(SimTime::ZERO, b, NodeId(5));
        nn.enqueue_dynamic_report(SimTime::ZERO, b, NodeId(0)); // already primary
        nn.process_reports(SimTime::ZERO);
        assert_eq!(nn.dynamic_locations(b), &[NodeId(5)]);
    }

    #[test]
    fn eviction_removes_visible_and_pending() {
        let (mut nn, f) = nn_with_one_file();
        let b = nn.file(f).blocks[1];
        nn.enqueue_dynamic_report(SimTime::ZERO, b, NodeId(7));
        nn.process_reports(SimTime::ZERO);
        nn.enqueue_dynamic_report(SimTime::from_secs(99), b, NodeId(8));
        nn.remove_dynamic(b, NodeId(7));
        nn.remove_dynamic(b, NodeId(8));
        nn.process_reports(SimTime::from_secs(100));
        assert!(nn.dynamic_locations(b).is_empty());
    }

    #[test]
    fn node_failure_reports_under_replicated_blocks() {
        let (mut nn, f) = nn_with_one_file();
        let blocks = nn.file(f).blocks.clone();
        // Node 1 holds primaries of blocks 0 and 1.
        let under = nn.fail_node(NodeId(1), 2);
        assert_eq!(under, vec![blocks[0], blocks[1]]);
        assert_eq!(nn.locations(blocks[0]), vec![NodeId(0)]);
        // Re-replicate and verify recovery.
        nn.add_primary_location(blocks[0], NodeId(3));
        assert_eq!(nn.replica_count(blocks[0]), 2);
    }

    #[test]
    fn dynamic_replica_counts_toward_availability() {
        let (mut nn, f) = nn_with_one_file();
        let b = nn.file(f).blocks[0]; // primaries on nodes 0, 1
        nn.enqueue_dynamic_report(SimTime::ZERO, b, NodeId(9));
        nn.process_reports(SimTime::ZERO);
        // Losing node 0 leaves 2 replicas (node 1 primary + node 9 dynamic),
        // so the block is NOT under-replicated at target 2.
        let under = nn.fail_node(NodeId(0), 2);
        assert!(!under.contains(&b));
    }

    /// The merged list must always equal the from-scratch definition:
    /// primary order, then visible dynamic replicas not in primary.
    fn assert_merged_consistent(nn: &NameNode) {
        for i in 0..nn.num_blocks() {
            let b = BlockId(i as u64);
            let mut want = nn.primary_locations(b).to_vec();
            for &n in nn.dynamic_locations(b) {
                if !want.contains(&n) {
                    want.push(n);
                }
            }
            assert_eq!(
                nn.locations(b),
                want.as_slice(),
                "block {b} merged list diverged"
            );
        }
    }

    #[test]
    fn merged_list_tracks_every_mutation_path() {
        let (mut nn, f) = nn_with_one_file();
        let b = nn.file(f).blocks[0]; // primaries 0, 1
        assert_merged_consistent(&nn);

        // Dynamic promotion appends.
        nn.enqueue_dynamic_report(SimTime::ZERO, b, NodeId(5));
        let promoted = nn.process_reports(SimTime::ZERO).to_vec();
        assert_eq!(promoted, vec![(b, NodeId(5))]);
        assert_merged_consistent(&nn);

        // A node that later becomes primary moves into the primary segment.
        nn.add_primary_location(b, NodeId(5));
        assert_merged_consistent(&nn);
        assert_eq!(nn.locations(b), &[NodeId(0), NodeId(1), NodeId(5)]);

        // Removing that primary re-exposes the dynamic copy.
        nn.remove_primary_location(b, NodeId(5));
        assert_merged_consistent(&nn);
        assert!(
            nn.locations(b).contains(&NodeId(5)),
            "dynamic copy resurfaces"
        );

        // Eviction of a visible dynamic replica reports visibility change.
        assert!(nn.remove_dynamic(b, NodeId(5)));
        assert!(!nn.remove_dynamic(b, NodeId(5)), "already gone");
        assert_merged_consistent(&nn);

        // Failure path retains order for survivors.
        nn.enqueue_dynamic_report(SimTime::ZERO, b, NodeId(7));
        nn.process_reports(SimTime::ZERO);
        nn.fail_node(NodeId(0), 2);
        assert_merged_consistent(&nn);
        assert_eq!(nn.locations(b), &[NodeId(1), NodeId(7)]);
    }

    #[test]
    fn restore_dynamic_is_immediate_and_idempotent() {
        let (mut nn, f) = nn_with_one_file();
        let b = nn.file(f).blocks[0]; // primaries 0, 1
        assert!(nn.restore_dynamic(b, NodeId(6)), "new location restored");
        assert!(nn.locations(b).contains(&NodeId(6)), "visible at once");
        assert_merged_consistent(&nn);
        assert!(!nn.restore_dynamic(b, NodeId(6)), "already dynamic");
        assert!(!nn.restore_dynamic(b, NodeId(0)), "already primary");
        assert_eq!(nn.replica_count(b), 3);
    }

    #[test]
    fn system_file_flag_is_preserved() {
        let mut nn = NameNode::new();
        let f = nn.register_file(
            "job.jar".into(),
            10,
            vec![10],
            vec![vec![NodeId(0)]],
            SimTime::ZERO,
            true,
        );
        assert!(nn.file(f).is_system);
    }
}
