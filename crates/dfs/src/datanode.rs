//! Data-node state: which blocks are physically present, dynamic-replica
//! storage accounting, and the disk-write counter the thrashing analysis
//! uses (Section I claim: ElephantTrap achieves LRU-like locality at ~50 %
//! of LRU's disk writes).

use crate::ids::BlockId;
use dare_net::NodeId;
use dare_simcore::FxHashSet;

/// What one or more data nodes hold on disk, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DiskUsage {
    pub(crate) primary_bytes: u64,
    pub(crate) dynamic_bytes: u64,
    pub(crate) dynamic_replicas: u64,
    pub(crate) corrupt_replicas: u64,
}

impl DiskUsage {
    /// `self` with `old` replaced by `new`, where `old` is part of `self`.
    pub(crate) fn replace(self, old: DiskUsage, new: DiskUsage) -> DiskUsage {
        DiskUsage {
            primary_bytes: self.primary_bytes - old.primary_bytes + new.primary_bytes,
            dynamic_bytes: self.dynamic_bytes - old.dynamic_bytes + new.dynamic_bytes,
            dynamic_replicas: self.dynamic_replicas - old.dynamic_replicas + new.dynamic_replicas,
            corrupt_replicas: self.corrupt_replicas - old.corrupt_replicas + new.corrupt_replicas,
        }
    }
}

/// One slave's local storage view.
#[derive(Debug, Clone)]
pub struct DataNode {
    id: NodeId,
    /// Primary (placement-policy) replicas resident here.
    primary: FxHashSet<BlockId>,
    /// Dynamically replicated blocks resident here (DARE-created).
    dynamic: FxHashSet<BlockId>,
    /// Resident replicas whose on-disk bytes have silently rotted. The
    /// bit is invisible to the namenode until a read or scrub checksums
    /// the replica — mirroring HDFS, where corruption is only discovered
    /// by the DataBlockScanner or a failed client read.
    corrupt: FxHashSet<BlockId>,
    /// Bytes consumed by primary replicas.
    primary_bytes: u64,
    /// Bytes consumed by dynamic replicas (checked against the budget).
    dynamic_bytes: u64,
    /// Count of block writes to local disk (primary + dynamic inserts).
    pub disk_writes: u64,
    /// Count of dynamic replicas evicted from this node.
    pub evictions: u64,
}

impl DataNode {
    /// Fresh empty data node.
    pub fn new(id: NodeId) -> Self {
        DataNode {
            id,
            primary: FxHashSet::default(),
            dynamic: FxHashSet::default(),
            corrupt: FxHashSet::default(),
            primary_bytes: 0,
            dynamic_bytes: 0,
            disk_writes: 0,
            evictions: 0,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// True when any replica (primary or dynamic) of `b` is resident.
    pub fn holds(&self, b: BlockId) -> bool {
        self.primary.contains(&b) || self.dynamic.contains(&b)
    }

    /// True when a *dynamic* replica of `b` is resident.
    pub fn holds_dynamic(&self, b: BlockId) -> bool {
        self.dynamic.contains(&b)
    }

    /// Store a primary replica. Idempotent (re-registration is a no-op
    /// and returns false).
    pub fn add_primary(&mut self, b: BlockId, bytes: u64) -> bool {
        let new = self.primary.insert(b);
        if new {
            self.primary_bytes += bytes;
            self.disk_writes += 1;
        }
        new
    }

    /// Drop a primary replica (a quarantined corrupt replica).
    pub fn remove_primary(&mut self, b: BlockId, bytes: u64) {
        if self.primary.remove(&b) {
            self.primary_bytes -= bytes;
            if !self.dynamic.contains(&b) {
                self.corrupt.remove(&b);
            }
        }
    }

    /// Flip the integrity bit of a resident replica: its bytes have
    /// silently rotted on disk. Returns false (no-op) when no replica of
    /// `b` is resident or the replica is already corrupt.
    pub fn mark_corrupt(&mut self, b: BlockId) -> bool {
        if !self.holds(b) {
            return false;
        }
        self.corrupt.insert(b)
    }

    /// True when the resident replica of `b` would fail a checksum.
    pub fn is_corrupt(&self, b: BlockId) -> bool {
        self.corrupt.contains(&b)
    }

    /// Number of resident replicas currently carrying the corrupt bit.
    pub fn corrupt_count(&self) -> usize {
        self.corrupt.len()
    }

    /// Resident corrupt replicas in ascending block order (deterministic
    /// scan order for the background scrubber).
    pub fn corrupt_blocks(&self) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self.corrupt.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Total resident bytes (primary + dynamic) — what one full scrub
    /// pass has to read.
    pub fn total_bytes(&self) -> u64 {
        self.primary_bytes + self.dynamic_bytes
    }

    /// Store a dynamic replica. Returns false (and does nothing) if a
    /// replica of the block is already resident — a node never needs two
    /// copies of the same block.
    pub fn add_dynamic(&mut self, b: BlockId, bytes: u64) -> bool {
        if self.primary.contains(&b) || !self.dynamic.insert(b) {
            return false;
        }
        self.dynamic_bytes += bytes;
        self.disk_writes += 1;
        true
    }

    /// Evict a dynamic replica. Returns false if it was not resident.
    pub fn remove_dynamic(&mut self, b: BlockId, bytes: u64) -> bool {
        if self.dynamic.remove(&b) {
            self.dynamic_bytes -= bytes;
            self.evictions += 1;
            if !self.primary.contains(&b) {
                self.corrupt.remove(&b);
            }
            true
        } else {
            false
        }
    }

    /// Bytes of dynamic-replica storage in use.
    pub fn dynamic_bytes(&self) -> u64 {
        self.dynamic_bytes
    }

    /// Bytes of primary storage in use.
    pub fn primary_bytes(&self) -> u64 {
        self.primary_bytes
    }

    /// What this node holds, as one term of the cluster-wide sums.
    pub(crate) fn usage(&self) -> DiskUsage {
        DiskUsage {
            primary_bytes: self.primary_bytes,
            dynamic_bytes: self.dynamic_bytes,
            dynamic_replicas: self.dynamic.len() as u64,
            corrupt_replicas: self.corrupt.len() as u64,
        }
    }

    /// All resident blocks (primary then dynamic; deterministic order).
    pub fn all_blocks(&self) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self
            .primary
            .iter()
            .chain(self.dynamic.iter())
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of resident dynamic replicas.
    pub fn dynamic_count(&self) -> usize {
        self.dynamic.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_accounting() {
        let mut dn = DataNode::new(NodeId(0));
        dn.add_primary(BlockId(1), 100);
        dn.add_primary(BlockId(1), 100); // idempotent
        dn.add_primary(BlockId(2), 50);
        assert_eq!(dn.primary_bytes(), 150);
        assert_eq!(dn.disk_writes, 2);
        assert!(dn.holds(BlockId(1)));
        dn.remove_primary(BlockId(1), 100);
        assert_eq!(dn.primary_bytes(), 50);
        assert!(!dn.holds(BlockId(1)));
    }

    #[test]
    fn dynamic_accounting_and_eviction() {
        let mut dn = DataNode::new(NodeId(0));
        assert!(dn.add_dynamic(BlockId(7), 64));
        assert!(!dn.add_dynamic(BlockId(7), 64), "duplicate rejected");
        assert_eq!(dn.dynamic_bytes(), 64);
        assert!(dn.holds_dynamic(BlockId(7)));
        assert!(dn.remove_dynamic(BlockId(7), 64));
        assert!(!dn.remove_dynamic(BlockId(7), 64));
        assert_eq!(dn.dynamic_bytes(), 0);
        assert_eq!(dn.evictions, 1);
        assert_eq!(dn.disk_writes, 1);
    }

    #[test]
    fn dynamic_insert_refused_when_primary_resident() {
        let mut dn = DataNode::new(NodeId(0));
        dn.add_primary(BlockId(3), 10);
        assert!(!dn.add_dynamic(BlockId(3), 10));
        assert_eq!(dn.dynamic_bytes(), 0);
    }

    #[test]
    fn corrupt_bit_lifecycle() {
        let mut dn = DataNode::new(NodeId(0));
        assert!(!dn.mark_corrupt(BlockId(1)), "absent replica cannot rot");
        dn.add_primary(BlockId(1), 100);
        assert!(dn.mark_corrupt(BlockId(1)));
        assert!(!dn.mark_corrupt(BlockId(1)), "already corrupt");
        assert!(dn.is_corrupt(BlockId(1)));
        assert_eq!(dn.corrupt_count(), 1);
        // Dropping the replica clears the bit: a re-written copy is clean.
        dn.remove_primary(BlockId(1), 100);
        assert!(!dn.is_corrupt(BlockId(1)));
        dn.add_primary(BlockId(1), 100);
        assert!(!dn.is_corrupt(BlockId(1)));
        // Dynamic replicas carry the bit through the eviction path too.
        dn.add_dynamic(BlockId(2), 64);
        assert!(dn.mark_corrupt(BlockId(2)));
        assert!(dn.remove_dynamic(BlockId(2), 64));
        assert!(!dn.is_corrupt(BlockId(2)));
        assert_eq!(dn.corrupt_count(), 0);
    }

    #[test]
    fn all_blocks_lists_both_kinds_sorted() {
        let mut dn = DataNode::new(NodeId(1));
        dn.add_primary(BlockId(5), 1);
        dn.add_dynamic(BlockId(2), 1);
        dn.add_primary(BlockId(9), 1);
        assert_eq!(dn.all_blocks(), vec![BlockId(2), BlockId(5), BlockId(9)]);
        assert_eq!(dn.dynamic_count(), 1);
    }
}
