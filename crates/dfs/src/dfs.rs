//! The `Dfs` facade: name node + data nodes + placement, with the dynamic
//! replication hooks DARE needs.

use crate::datanode::{DataNode, DiskUsage};
use crate::ids::{BlockId, FileId};
use crate::namenode::NameNode;
use crate::placement::DefaultPlacement;
use dare_net::{NodeId, Topology};
use dare_simcore::fnv::{fnv1a_u64, FNV_OFFSET};
use dare_simcore::{DetRng, SimDuration, SimTime};

/// File-system configuration (the knobs Hadoop exposes in hdfs-site.xml).
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Fixed block size in bytes (64-256 MB in the paper's clusters;
    /// 128 MB default, matching Fig. 2's caption).
    pub block_size: u64,
    /// Primary replicas per block (Hadoop default: 3).
    pub replication_factor: u32,
    /// Delay until a dynamic replica's `DNA_DYNREPL` report reaches the
    /// name node — one heartbeat interval (Hadoop default: 3 s).
    pub report_delay: SimDuration,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            block_size: 128 * dare_net::MB,
            replication_factor: 3,
            report_delay: SimDuration::from_secs(3),
        }
    }
}

/// What [`Dfs::quarantine_replica`] removed once a checksum failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quarantined {
    /// A primary replica: its location is dropped at the name node and
    /// the bad bytes discarded, leaving the block under-replicated until
    /// a repair copy lands. `was_visible` reports whether the scheduler's
    /// view of the block changed (false when the node had already been
    /// declared dead and the location was gone).
    Primary {
        /// Whether the scheduler-visible location set changed.
        was_visible: bool,
    },
    /// A DARE dynamic replica: evicted rather than repaired — the
    /// replication policies re-create dynamic copies on demand.
    /// `was_visible` as above.
    Dynamic {
        /// Whether the scheduler-visible location set changed.
        was_visible: bool,
    },
}

/// The distributed file system: metadata master plus per-node storage.
///
/// ```
/// use dare_dfs::{Dfs, DfsConfig, DefaultPlacement};
/// use dare_net::{Topology, NodeId, MB};
/// use dare_simcore::{DetRng, SimTime};
///
/// let mut rng = DetRng::new(7);
/// let mut dfs = Dfs::new(DfsConfig::default(), Topology::single_rack(6));
/// let file = dfs.create_file(
///     SimTime::ZERO, "data/f0".into(), 256 * MB,
///     None, &DefaultPlacement, &mut rng, false);
/// let block = dfs.namenode().file(file).blocks[0];
/// assert_eq!(dfs.visible_locations(block).len(), 3); // default replication
///
/// // A node that fetched the block remotely keeps it (the DARE hook):
/// let outsider = (0..6).map(NodeId)
///     .find(|&n| !dfs.is_physically_present(n, block)).unwrap();
/// dfs.insert_dynamic(SimTime::ZERO, outsider, block);
/// dfs.process_reports(SimTime::from_secs(3)); // next heartbeat
/// assert!(dfs.visible_locations(block).contains(&outsider));
/// ```
#[derive(Debug, Clone)]
pub struct Dfs {
    cfg: DfsConfig,
    nn: NameNode,
    dns: Vec<DataNode>,
    /// Per block, the data nodes holding a replica of it on disk (any
    /// kind, any liveness). Kept by every data-node mutator, so "does a
    /// copy survive anywhere" costs one read, not a scan of the nodes.
    copies: Vec<u32>,
    /// The data nodes' [`DataNode::usage`] summed, kept the same way.
    usage: DiskUsage,
    topo: Topology,
    /// Blocks whose locations or physical copies changed since the last
    /// [`Dfs::drain_touched`], recorded only while [`Dfs::log_touches`]
    /// is on. Every mutator logs here, so a caller that re-checks only
    /// changed blocks cannot miss one.
    touched: Vec<BlockId>,
    log_touches: bool,
}

impl Dfs {
    /// Build an empty file system over `topo`.
    pub fn new(cfg: DfsConfig, topo: Topology) -> Self {
        let dns = (0..topo.nodes())
            .map(|i| DataNode::new(NodeId(i)))
            .collect();
        Dfs {
            cfg,
            nn: NameNode::new(),
            dns,
            copies: Vec::new(),
            usage: DiskUsage::default(),
            topo,
            touched: Vec::new(),
            log_touches: false,
        }
    }

    /// Start or stop logging the blocks each mutator touches (off by
    /// default, so an unchecked run pays one branch per mutation).
    pub fn log_touches(&mut self, on: bool) {
        self.log_touches = on;
        if !on {
            self.touched.clear();
        }
    }

    /// Hand over the blocks touched since the last call, in mutation
    /// order and possibly repeated.
    pub fn drain_touched(&mut self) -> std::vec::Drain<'_, BlockId> {
        self.touched.drain(..)
    }

    fn touch(&mut self, b: BlockId) {
        if self.log_touches {
            self.touched.push(b);
        }
    }

    /// Run `f` on the data node `node`, keeping the copy count of `b` and
    /// the usage totals in step with what it changed. Every mutation of
    /// one replica on a data node goes through here.
    fn on_disk<R>(&mut self, node: NodeId, b: BlockId, f: impl FnOnce(&mut DataNode) -> R) -> R {
        let dn = &mut self.dns[node.idx()];
        let (held, used) = (dn.holds(b), dn.usage());
        let r = f(dn);
        match (held, dn.holds(b)) {
            (false, true) => self.copies[b.idx()] += 1,
            (true, false) => self.copies[b.idx()] -= 1,
            _ => {}
        }
        self.usage = self.usage.replace(used, dn.usage());
        r
    }

    /// Replace `node`'s disk with an empty one (a crash that loses it).
    fn wipe_disk(&mut self, node: NodeId) {
        let old = std::mem::replace(&mut self.dns[node.idx()], DataNode::new(node));
        self.usage = self.usage.replace(old.usage(), DiskUsage::default());
        let mut held = old.all_blocks();
        held.dedup(); // a block both primary and dynamic there
        for b in held {
            self.copies[b.idx()] -= 1;
        }
    }

    /// Log every block `node` holds on disk or is a visible location of.
    fn touch_node(&mut self, node: NodeId) {
        if self.log_touches {
            self.touched.extend(self.dns[node.idx()].all_blocks());
            self.touched.extend(self.nn.blocks_located_at(node));
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &DfsConfig {
        &self.cfg
    }

    /// The topology the file system spans.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Read access to the name node.
    pub fn namenode(&self) -> &NameNode {
        &self.nn
    }

    /// Read access to one data node.
    pub fn datanode(&self, n: NodeId) -> &DataNode {
        &self.dns[n.idx()]
    }

    /// Read access to all data nodes.
    pub fn datanodes(&self) -> &[DataNode] {
        &self.dns
    }

    /// Create a file of `size_bytes`, splitting it into blocks and placing
    /// `replication_factor` primary replicas of each via `placement`.
    /// Returns the file id.
    #[allow(clippy::too_many_arguments)]
    pub fn create_file(
        &mut self,
        now: SimTime,
        name: String,
        size_bytes: u64,
        writer: Option<NodeId>,
        placement: &DefaultPlacement,
        rng: &mut DetRng,
        is_system: bool,
    ) -> FileId {
        assert!(size_bytes > 0, "empty files are not modeled");
        let bs = self.cfg.block_size;
        let full = (size_bytes / bs) as usize;
        let rem = size_bytes % bs;
        let mut sizes = vec![bs; full];
        if rem > 0 {
            sizes.push(rem);
        }
        // The name node numbers the file's blocks consecutively from its
        // current count, so each block is mirrored into the data nodes
        // as it is placed.
        let first = self.nn.num_blocks() as u64;
        let mut locs = Vec::with_capacity(sizes.len());
        for (i, &sz) in sizes.iter().enumerate() {
            let b = BlockId(first + i as u64);
            let nodes = placement.place(&self.topo, writer, self.cfg.replication_factor, rng);
            // A new block: each replica placed is a new copy.
            let mut copies = 0;
            for n in &nodes {
                if self.dns[n.idx()].add_primary(b, sz) {
                    copies += 1;
                }
            }
            self.copies.push(copies);
            self.usage.primary_bytes += copies as u64 * sz;
            self.touch(b);
            locs.push(nodes);
        }
        self.nn
            .register_file(name, size_bytes, sizes, locs, now, is_system)
    }

    /// True when a replica of `b` is physically on `node` — including a
    /// dynamic replica whose report hasn't reached the name node yet (the
    /// node can read its own bytes immediately).
    pub fn is_physically_present(&self, node: NodeId, b: BlockId) -> bool {
        self.dns[node.idx()].holds(b)
    }

    /// Data nodes holding a replica of `b` on disk, whatever the kind of
    /// replica or the node's liveness: [`Dfs::is_physically_present`]
    /// counted over every node, in O(1).
    pub fn physical_copies(&self, b: BlockId) -> u32 {
        self.copies[b.idx()]
    }

    /// Locations the *scheduler* can see (primary + reported dynamic).
    /// Borrowed from the name node's maintained merged list — zero
    /// allocation per query.
    pub fn visible_locations(&self, b: BlockId) -> &[NodeId] {
        self.nn.locations(b)
    }

    /// Insert a dynamic replica of `b` at `node` (the `DNA_DYNREPL` path).
    /// Returns false when the node already holds the block. The replica is
    /// locally readable at once and scheduler-visible after the report
    /// delay.
    pub fn insert_dynamic(&mut self, now: SimTime, node: NodeId, b: BlockId) -> bool {
        let bytes = self.nn.block_size(b);
        if !self.on_disk(node, b, |dn| dn.add_dynamic(b, bytes)) {
            return false;
        }
        self.touch(b);
        self.nn
            .enqueue_dynamic_report(now + self.cfg.report_delay, b, node);
        true
    }

    /// Evict the dynamic replica of `b` at `node` (lazy deletion: the
    /// scheduling view forgets it immediately; the disk reclaim cost is not
    /// on any critical path). Returns `None` if no such replica exists,
    /// otherwise `Some(was_visible)` — whether the eviction changed the
    /// scheduler-visible location set (callers mirror visible removals
    /// into the scheduler's locality index).
    pub fn evict_dynamic(&mut self, node: NodeId, b: BlockId) -> Option<bool> {
        let bytes = self.nn.block_size(b);
        if !self.on_disk(node, b, |dn| dn.remove_dynamic(b, bytes)) {
            return None;
        }
        self.touch(b);
        Some(self.nn.remove_dynamic(b, node))
    }

    /// Silently corrupt the resident replica of `b` on `node` (bit-rot).
    /// The name node's view is untouched — corruption is only *detected*
    /// when a read or a scrub checksums the replica. Returns false when no
    /// replica is resident or it is already corrupt.
    pub fn corrupt_replica(&mut self, node: NodeId, b: BlockId) -> bool {
        self.touch(b);
        self.on_disk(node, b, |dn| dn.mark_corrupt(b))
    }

    /// True when the resident replica of `b` on `node` would fail a
    /// checksum.
    pub fn is_replica_corrupt(&self, node: NodeId, b: BlockId) -> bool {
        self.dns[node.idx()].is_corrupt(b)
    }

    /// Number of silently corrupt replicas cluster-wide (not yet detected
    /// and quarantined).
    pub fn total_corrupt_replicas(&self) -> u64 {
        self.usage.corrupt_replicas
    }

    /// Remove a replica that failed its checksum: the bad bytes are
    /// discarded and the name node forgets the location, so `pick_source`
    /// and the scheduler never offer it again. Primary replicas leave the
    /// block under-replicated (repair path); dynamic replicas go through
    /// the eviction path. Returns `None` when `node` holds no replica of
    /// `b`.
    pub fn quarantine_replica(&mut self, node: NodeId, b: BlockId) -> Option<Quarantined> {
        if !self.dns[node.idx()].holds(b) {
            return None;
        }
        if self.dns[node.idx()].holds_dynamic(b) {
            let was_visible = self.evict_dynamic(node, b).expect("replica resident");
            return Some(Quarantined::Dynamic { was_visible });
        }
        self.touch(b);
        let bytes = self.nn.block_size(b);
        let was_visible = self.nn.primary_locations(b).contains(&node);
        self.on_disk(node, b, |dn| dn.remove_primary(b, bytes));
        if was_visible {
            self.nn.remove_primary_location(b, node);
        }
        Some(Quarantined::Primary { was_visible })
    }

    /// Deliver heartbeats: promote pending dynamic-replica reports.
    /// Returns the (block, node) pairs that just became scheduler-visible
    /// (reusable buffer, valid until the next call).
    pub fn process_reports(&mut self, now: SimTime) -> &[(BlockId, NodeId)] {
        let promoted = self.nn.process_reports(now);
        if self.log_touches {
            self.touched.extend(promoted.iter().map(|&(b, _)| b));
        }
        promoted
    }

    /// Remove a node from the name node's location maps *without* touching
    /// its disk — the declaration step of heartbeat-timeout failure
    /// detection. Returns the blocks now under-replicated relative to the
    /// configured replication factor. The caller decides whether the disk
    /// contents survive ([`Dfs::rejoin_node`]) or not ([`Dfs::wipe_node`]).
    pub fn mark_node_dead(&mut self, node: NodeId) -> Vec<BlockId> {
        self.touch_node(node);
        self.nn.fail_node(node, self.cfg.replication_factor)
    }

    /// Destroy a node's disk contents (permanent crash). Does not touch
    /// the name node view — pair with [`Dfs::mark_node_dead`] at
    /// declaration time.
    pub fn wipe_node(&mut self, node: NodeId) {
        self.touch_node(node);
        self.wipe_disk(node);
    }

    /// Process the block report of a node rejoining after a transient
    /// outage: every block still on its disk but unknown to the name node
    /// is re-registered (immediately visible — the bytes are already
    /// there). Returns the restored blocks in ascending id order.
    pub fn rejoin_node(&mut self, node: NodeId) -> Vec<BlockId> {
        self.touch_node(node);
        let blocks = self.dns[node.idx()].all_blocks();
        let mut restored = Vec::new();
        for b in blocks {
            if self.nn.locations(b).contains(&node) {
                continue;
            }
            let ok = if self.dns[node.idx()].holds_dynamic(b) {
                self.nn.restore_dynamic(b, node)
            } else {
                self.nn.add_primary_location(b, node);
                true
            };
            if ok {
                restored.push(b);
            }
        }
        restored
    }

    /// Register a freshly copied primary replica of `b` on `node` — the
    /// completion of a bandwidth-modeled recovery transfer.
    ///
    /// # Panics
    /// In debug builds, if `node` already physically holds the block.
    pub fn add_replica(&mut self, b: BlockId, node: NodeId) {
        debug_assert!(
            !self.is_physically_present(node, b),
            "recovery target already holds {b}"
        );
        self.touch(b);
        let bytes = self.nn.block_size(b);
        self.nn.add_primary_location(b, node);
        self.on_disk(node, b, |dn| dn.add_primary(b, bytes));
    }

    /// Sum of dynamic-replica evictions across data nodes.
    pub fn total_evictions(&self) -> u64 {
        self.dns.iter().map(|d| d.evictions).sum()
    }

    /// Total bytes held in dynamic replicas cluster-wide.
    pub fn total_dynamic_bytes(&self) -> u64 {
        self.usage.dynamic_bytes
    }

    /// Total bytes of primary data cluster-wide (all replicas counted).
    pub fn total_primary_bytes(&self) -> u64 {
        self.usage.primary_bytes
    }

    /// Number of dynamic replicas currently held cluster-wide.
    pub fn total_dynamic_replicas(&self) -> u64 {
        self.usage.dynamic_replicas
    }

    /// FNV-1a fingerprint of the physical replica map: every
    /// `(node, block, is_dynamic)` triple in node/block order. Two `Dfs`
    /// instances with identical on-disk replica placement produce the same
    /// fingerprint; the tracing differential test uses this to prove the
    /// recorder never perturbs replication state.
    pub fn replica_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for dn in &self.dns {
            fnv1a_u64(&mut h, dn.id().0 as u64);
            for b in dn.all_blocks() {
                fnv1a_u64(&mut h, b.0);
                fnv1a_u64(&mut h, dn.holds_dynamic(b) as u64);
            }
        }
        h
    }

    /// Extended FNV-1a state fingerprint for the model checker: everything
    /// [`Dfs::replica_fingerprint`] covers plus the per-node corrupt bits,
    /// the name node's scheduler-visible location order (it steers future
    /// placement and task scheduling), and the pending dynamic-report
    /// queue with visibility times made *relative to `now`* — two states
    /// reached at different absolute times but with identical remaining
    /// behavior hash the same.
    pub fn extended_fingerprint(&self, now: SimTime) -> u64 {
        let mut h = self.replica_fingerprint();
        for dn in &self.dns {
            for b in dn.corrupt_blocks() {
                fnv1a_u64(&mut h, dn.id().0 as u64);
                fnv1a_u64(&mut h, b.0);
            }
        }
        fnv1a_u64(&mut h, 0x5eed);
        for i in 0..self.nn.num_blocks() {
            let b = BlockId(i as u64);
            for &n in self.nn.locations(b) {
                fnv1a_u64(&mut h, n.0 as u64);
            }
            fnv1a_u64(&mut h, u64::MAX); // per-block terminator
        }
        for (visible_at, b, n) in self.nn.pending_report_entries() {
            fnv1a_u64(
                &mut h,
                visible_at.as_micros().saturating_sub(now.as_micros()),
            );
            fnv1a_u64(&mut h, b.0);
            fnv1a_u64(&mut h, n.0 as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_net::MB;

    /// Ten nodes on one rack with the default configuration.
    fn small_dfs() -> (Dfs, DetRng) {
        let dfs = Dfs::new(DfsConfig::default(), Topology::single_rack(10));
        (dfs, DetRng::new(77))
    }

    /// Write an `mb`-megabyte file at time zero from node `writer` (`None`:
    /// from outside the cluster); returns its blocks.
    fn write(
        dfs: &mut Dfs,
        rng: &mut DetRng,
        name: &str,
        mb: u64,
        writer: Option<u32>,
    ) -> Vec<BlockId> {
        let writer = writer.map(NodeId);
        let f = dfs.create_file(
            SimTime::ZERO,
            name.into(),
            mb * MB,
            writer,
            &DefaultPlacement,
            rng,
            false,
        );
        dfs.namenode().file(f).blocks.clone()
    }

    /// The lowest-numbered of the ten nodes without a copy of `b`.
    fn free_node(dfs: &Dfs, b: BlockId) -> NodeId {
        (0..10)
            .map(NodeId)
            .find(|&n| !dfs.is_physically_present(n, b))
            .expect("a node lacks the block")
    }

    #[test]
    fn create_file_splits_into_blocks_with_partial_tail() {
        let (mut dfs, mut rng) = small_dfs();
        let f = dfs.create_file(
            SimTime::ZERO,
            "logs/day1".into(),
            300 * MB,
            Some(NodeId(2)),
            &DefaultPlacement,
            &mut rng,
            false,
        );
        let meta = dfs.namenode().file(f);
        assert_eq!(meta.num_blocks(), 3);
        let sizes: Vec<u64> = meta
            .blocks
            .iter()
            .map(|&b| dfs.namenode().block_size(b))
            .collect();
        assert_eq!(sizes, vec![128 * MB, 128 * MB, 44 * MB]);
        for &b in &meta.blocks {
            let locs = dfs.visible_locations(b);
            assert_eq!(locs.len(), 3);
            assert_eq!(locs[0], NodeId(2), "writer-local first replica");
            for &n in locs {
                assert!(dfs.is_physically_present(n, b));
            }
        }
        // 3 blocks x 3 replicas
        let writes: u64 = dfs.datanodes().iter().map(|d| d.disk_writes).sum();
        assert_eq!(writes, 9);
        assert_eq!(dfs.total_primary_bytes(), 3 * 300 * MB);
    }

    #[test]
    fn mutators_log_the_blocks_they_touch_once_enabled() {
        let (mut dfs, mut rng) = small_dfs();
        let blocks = write(&mut dfs, &mut rng, "x", 256, Some(0));
        let (b0, b1) = (blocks[0], blocks[1]);
        assert_eq!(dfs.drain_touched().count(), 0, "logging is off by default");

        dfs.log_touches(true);
        let outsider = free_node(&dfs, b1);
        dfs.insert_dynamic(SimTime::ZERO, outsider, b1);
        dfs.process_reports(SimTime::from_secs(3));
        dfs.evict_dynamic(outsider, b1);
        assert_eq!(dfs.drain_touched().collect::<Vec<_>>(), [b1, b1, b1]);

        // A node-level mutation logs every block the node holds or is a
        // visible location of: node 0 wrote both blocks.
        dfs.mark_node_dead(NodeId(0));
        let mut touched: Vec<BlockId> = dfs.drain_touched().collect();
        touched.sort_unstable();
        touched.dedup();
        assert_eq!(touched, [b0, b1]);
        dfs.rejoin_node(NodeId(0));
        assert!(dfs.drain_touched().any(|b| b == b0));

        dfs.log_touches(false);
        dfs.wipe_node(NodeId(0));
        assert_eq!(dfs.drain_touched().count(), 0);
    }

    #[test]
    fn dynamic_replica_lifecycle() {
        let (mut dfs, mut rng) = small_dfs();
        let b = write(&mut dfs, &mut rng, "x", 128, Some(0))[0];
        let holder = dfs.visible_locations(b)[0];
        let outsider = free_node(&dfs, b);

        let t0 = SimTime::from_secs(100);
        assert!(dfs.insert_dynamic(t0, outsider, b));
        // readable locally at once, not yet schedulable
        assert!(dfs.is_physically_present(outsider, b));
        assert!(!dfs.visible_locations(b).contains(&outsider));
        dfs.process_reports(SimTime::from_secs(102));
        assert!(!dfs.visible_locations(b).contains(&outsider), "3s not up");
        dfs.process_reports(SimTime::from_secs(103));
        assert!(dfs.visible_locations(b).contains(&outsider));
        assert_eq!(dfs.total_dynamic_bytes(), 128 * MB);

        // duplicate insert refused
        assert!(!dfs.insert_dynamic(t0, outsider, b));
        // inserting on a primary holder refused
        assert!(!dfs.insert_dynamic(t0, holder, b));

        assert_eq!(dfs.evict_dynamic(outsider, b), Some(true));
        assert!(!dfs.visible_locations(b).contains(&outsider));
        assert!(!dfs.is_physically_present(outsider, b));
        assert_eq!(dfs.total_dynamic_bytes(), 0);
        assert_eq!(dfs.total_evictions(), 1);
        assert!(dfs.evict_dynamic(outsider, b).is_none());
    }

    #[test]
    fn replica_fingerprint_tracks_physical_state() {
        let (mut dfs, mut rng) = small_dfs();
        let b = write(&mut dfs, &mut rng, "x", 128, Some(0))[0];
        let outsider = free_node(&dfs, b);
        let before = dfs.replica_fingerprint();
        assert_eq!(before, dfs.replica_fingerprint(), "deterministic");
        assert!(dfs.insert_dynamic(SimTime::ZERO, outsider, b));
        let with_dynamic = dfs.replica_fingerprint();
        assert_ne!(before, with_dynamic, "placement change shifts the hash");
        assert_eq!(dfs.evict_dynamic(outsider, b), Some(false));
        assert_eq!(dfs.replica_fingerprint(), before, "eviction restores it");
    }

    #[test]
    fn eviction_before_report_cancels_visibility() {
        let (mut dfs, mut rng) = small_dfs();
        let b = write(&mut dfs, &mut rng, "x", 128, None)[0];
        let outsider = free_node(&dfs, b);
        dfs.insert_dynamic(SimTime::ZERO, outsider, b);
        dfs.evict_dynamic(outsider, b);
        dfs.process_reports(SimTime::from_secs(10));
        assert!(!dfs.visible_locations(b).contains(&outsider));
    }

    /// Ten nodes on one rack, one replica per block.
    fn rf1_dfs(seed: u64) -> (Dfs, DetRng) {
        let cfg = DfsConfig {
            replication_factor: 1,
            ..DfsConfig::default()
        };
        (Dfs::new(cfg, Topology::single_rack(10)), DetRng::new(seed))
    }

    /// Kill `node` the way the engine does: its disk dies with it, then
    /// the name node drops it when it is declared dead. Returns the
    /// under-replicated blocks left with no physical copy, which the
    /// engine records as lost.
    fn kill(dfs: &mut Dfs, node: NodeId) -> Vec<BlockId> {
        dfs.wipe_node(node);
        let mut lost = dfs.mark_node_dead(node);
        lost.retain(|&b| dfs.physical_copies(b) == 0);
        lost
    }

    #[test]
    fn losing_the_last_replica_is_recorded_not_fabricated() {
        // rf = 1: the writer-local node holds the only copy.
        let (mut dfs, mut rng) = rf1_dfs(77);
        let blocks = write(&mut dfs, &mut rng, "only-copy", 256, Some(4));
        assert_eq!(
            kill(&mut dfs, NodeId(4)),
            blocks,
            "both lost their last replica"
        );
        for &b in &blocks {
            assert!(dfs.visible_locations(b).is_empty());
        }
    }

    #[test]
    fn sole_dynamic_replica_lost_with_failed_node() {
        // rf = 1: primary on node 4, plus a dynamic copy on node 8. The
        // primary holder dies first — the dynamic copy keeps the block
        // alive — then the dynamic holder dies holding the only replica.
        let (mut dfs, mut rng) = rf1_dfs(21);
        let b = write(&mut dfs, &mut rng, "x", 128, Some(4))[0];
        assert!(dfs.insert_dynamic(SimTime::ZERO, NodeId(8), b));
        dfs.process_reports(SimTime::from_secs(3));

        assert!(
            kill(&mut dfs, NodeId(4)).is_empty(),
            "dynamic copy keeps the block alive"
        );
        assert_eq!(dfs.visible_locations(b), &[NodeId(8)]);

        let lost = kill(&mut dfs, NodeId(8));
        assert_eq!(lost, vec![b], "sole dynamic replica died with the node");
        assert!(dfs.visible_locations(b).is_empty());
    }

    #[test]
    fn fail_node_lost_accounting_is_per_block() {
        // Node 4 holds the sole primary of file x's block AND a dynamic
        // copy of file y's block (whose primaries live elsewhere). Failing
        // node 4 must lose exactly x's block, not y's.
        let (mut dfs, mut rng) = rf1_dfs(9);
        let bx = write(&mut dfs, &mut rng, "x", 128, Some(4))[0];
        let by = write(&mut dfs, &mut rng, "y", 128, Some(7))[0];
        assert!(dfs.insert_dynamic(SimTime::ZERO, NodeId(4), by));
        dfs.process_reports(SimTime::from_secs(3));

        let lost = kill(&mut dfs, NodeId(4));
        assert_eq!(lost, vec![bx], "only the sole-replica block is lost");
        assert!(dfs.visible_locations(bx).is_empty());
        assert_eq!(dfs.visible_locations(by), &[NodeId(7)], "y survives");
    }

    #[test]
    fn corruption_is_silent_until_quarantine() {
        let (mut dfs, mut rng) = small_dfs();
        let b = write(&mut dfs, &mut rng, "x", 128, Some(0))[0];
        let victim = dfs.visible_locations(b)[0];
        assert!(!dfs.is_replica_corrupt(victim, b));
        assert!(dfs.corrupt_replica(victim, b));
        assert!(!dfs.corrupt_replica(victim, b), "already corrupt");
        // Silent: the scheduler's view is untouched until detection.
        assert!(dfs.visible_locations(b).contains(&victim));
        assert!(dfs.is_replica_corrupt(victim, b));
        assert_eq!(dfs.total_corrupt_replicas(), 1);

        let q = dfs.quarantine_replica(victim, b);
        assert_eq!(q, Some(Quarantined::Primary { was_visible: true }));
        assert!(!dfs.visible_locations(b).contains(&victim));
        assert!(!dfs.is_physically_present(victim, b));
        assert_eq!(
            dfs.total_corrupt_replicas(),
            0,
            "bit dropped with the bytes"
        );
        assert_eq!(dfs.visible_locations(b).len(), 2, "block under-replicated");
        assert!(dfs.quarantine_replica(victim, b).is_none(), "already gone");
    }

    #[test]
    fn corrupt_dynamic_replica_is_evicted_on_quarantine() {
        let (mut dfs, mut rng) = small_dfs();
        let b = write(&mut dfs, &mut rng, "x", 128, Some(0))[0];
        let outsider = free_node(&dfs, b);
        assert!(dfs.insert_dynamic(SimTime::ZERO, outsider, b));
        dfs.process_reports(SimTime::from_secs(3));
        assert!(dfs.corrupt_replica(outsider, b));
        let q = dfs.quarantine_replica(outsider, b);
        assert_eq!(q, Some(Quarantined::Dynamic { was_visible: true }));
        assert!(!dfs.is_physically_present(outsider, b));
        assert_eq!(dfs.total_evictions(), 1, "went through the evict path");
        assert_eq!(dfs.visible_locations(b).len(), 3, "primaries untouched");

        // A corrupt dynamic replica whose report is still pending: the
        // quarantine cancels the report and reports no visibility change.
        let other = free_node(&dfs, b);
        assert!(dfs.insert_dynamic(SimTime::from_secs(10), other, b));
        assert!(dfs.corrupt_replica(other, b));
        let q = dfs.quarantine_replica(other, b);
        assert_eq!(q, Some(Quarantined::Dynamic { was_visible: false }));
        dfs.process_reports(SimTime::from_secs(20));
        assert!(
            !dfs.visible_locations(b).contains(&other),
            "report cancelled"
        );
    }

    #[test]
    fn mark_dead_rejoin_roundtrip_restores_replicas() {
        let (mut dfs, mut rng) = small_dfs();
        let blocks = write(&mut dfs, &mut rng, "x", 256, Some(3));
        // Give node 3 a dynamic replica of somebody else's block too.
        let yb = write(&mut dfs, &mut rng, "y", 128, Some(7))[0];
        if !dfs.is_physically_present(NodeId(3), yb) {
            dfs.insert_dynamic(SimTime::ZERO, NodeId(3), yb);
            dfs.process_reports(SimTime::from_secs(3));
        }

        let under = dfs.mark_node_dead(NodeId(3));
        assert!(!under.is_empty(), "writer-local blocks under-replicated");
        for &b in &blocks {
            assert!(!dfs.visible_locations(b).contains(&NodeId(3)));
            // Disk untouched: the bytes are still there.
            assert!(dfs.is_physically_present(NodeId(3), b));
        }

        let restored = dfs.rejoin_node(NodeId(3));
        assert!(restored.len() >= blocks.len(), "block report re-registers");
        let mut sorted = restored.clone();
        sorted.sort();
        assert_eq!(restored, sorted, "deterministic report order");
        for &b in &blocks {
            assert!(dfs.visible_locations(b).contains(&NodeId(3)));
        }
        if dfs.datanode(NodeId(3)).holds_dynamic(yb) {
            assert!(dfs.visible_locations(yb).contains(&NodeId(3)));
        }
        // Rejoining twice is a no-op.
        assert!(dfs.rejoin_node(NodeId(3)).is_empty());
    }

    #[test]
    fn wipe_then_rejoin_restores_nothing() {
        let (mut dfs, mut rng) = small_dfs();
        write(&mut dfs, &mut rng, "x", 256, Some(2));
        dfs.mark_node_dead(NodeId(2));
        dfs.wipe_node(NodeId(2));
        assert!(dfs.rejoin_node(NodeId(2)).is_empty(), "disk is empty");
        assert_eq!(dfs.datanode(NodeId(2)).primary_bytes(), 0);
    }

    #[test]
    fn add_replica_registers_bytes_and_location() {
        let (mut dfs, mut rng) = small_dfs();
        let b = write(&mut dfs, &mut rng, "x", 128, None)[0];
        let target = free_node(&dfs, b);
        dfs.add_replica(b, target);
        assert!(dfs.visible_locations(b).contains(&target));
        assert!(dfs.is_physically_present(target, b));
    }

    /// The copy counts and usage totals against a scan of every data node.
    fn assert_counts_match_scan(dfs: &Dfs) {
        let dns = dfs.datanodes();
        for i in 0..dfs.namenode().num_blocks() {
            let b = BlockId(i as u64);
            let scan = dns.iter().filter(|d| d.holds(b)).count() as u32;
            assert_eq!(dfs.physical_copies(b), scan, "copies of {b}");
        }
        for d in dns {
            let blocks = d.all_blocks();
            assert!(
                blocks.windows(2).all(|w| w[0] != w[1]),
                "a block stored twice on one node: {blocks:?}"
            );
        }
        let sum = |f: fn(&DataNode) -> u64| dns.iter().map(f).sum::<u64>();
        assert_eq!(dfs.total_primary_bytes(), sum(|d| d.primary_bytes()));
        assert_eq!(dfs.total_dynamic_bytes(), sum(|d| d.dynamic_bytes()));
        assert_eq!(
            dfs.total_dynamic_replicas(),
            sum(|d| d.dynamic_count() as u64)
        );
        assert_eq!(
            dfs.total_corrupt_replicas(),
            sum(|d| d.corrupt_count() as u64)
        );
    }

    /// Every data-node mutator, in random order, against the scan.
    #[test]
    fn copy_counts_and_totals_match_a_scan_of_the_data_nodes() {
        let n = 8;
        let mut dfs = Dfs::new(DfsConfig::default(), Topology::single_rack(n));
        let (mut rng, mut ops) = (DetRng::new(41), DetRng::new(42));
        for step in 0..3_000u64 {
            let now = SimTime::from_secs(step);
            if step % 100 == 0 {
                let size = (1 + ops.index(3) as u64) * 100 * MB;
                dfs.create_file(
                    now,
                    format!("f{step}"),
                    size,
                    None,
                    &DefaultPlacement,
                    &mut rng,
                    false,
                );
            }
            let node = NodeId(ops.index(n as usize) as u32);
            let b = BlockId(ops.index(dfs.namenode().num_blocks()) as u64);
            match ops.index(9) {
                0 | 1 => {
                    dfs.insert_dynamic(now, node, b);
                }
                2 => {
                    dfs.evict_dynamic(node, b);
                }
                3 => {
                    dfs.corrupt_replica(node, b);
                }
                4 => {
                    dfs.quarantine_replica(node, b);
                }
                5 => {
                    dfs.process_reports(now);
                }
                6 => {
                    dfs.mark_node_dead(node);
                }
                7 => {
                    dfs.rejoin_node(node);
                }
                8 if !dfs.is_physically_present(node, b) => dfs.add_replica(b, node),
                _ => dfs.wipe_node(node),
            }
            assert_counts_match_scan(&dfs);
        }
    }

    #[test]
    fn tiny_file_single_partial_block() {
        let (mut dfs, mut rng) = small_dfs();
        let f = dfs.create_file(
            SimTime::ZERO,
            "job.xml".into(),
            MB,
            None,
            &DefaultPlacement,
            &mut rng,
            true,
        );
        let meta = dfs.namenode().file(f);
        assert_eq!(meta.num_blocks(), 1);
        assert!(meta.is_system);
        assert_eq!(dfs.namenode().block_size(meta.blocks[0]), MB);
    }
}
