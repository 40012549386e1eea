//! The per-event structural invariant check, incremental.
//!
//! An event changes a handful of nodes and blocks, so the check after it
//! visits only those. The marks are set where the state changes: the
//! [`crate::nodes::NodeTable`] setters log slot and liveness writes,
//! [`Dfs`](dare_dfs::Dfs) mutators log the blocks they touch, and the
//! engine marks lost-set inserts and new recovery transfers. Two checks
//! need only the new entries: a transfer's `visible_at_start` is fixed
//! when it starts, and the `primary-within-rf` cap only grows (it counts
//! rejoins). The global stream-cap check is O(1).
//!
//! Given a clean previous state, the dirty entries are the only ones
//! that can newly fail, so the first violation comes out exactly as a
//! full scan reports it: category by category, each in ascending node,
//! `(block, dst)` or block order. The full scan survives as a test
//! oracle ([`Engine::full_scan`], built for tests and for every build
//! with debug assertions), which then cross-checks every armed step;
//! release builds carry only the incremental check.

use super::{Engine, RecoveryXfer};
use dare_dfs::BlockId;
use dare_net::flow::FlowId;
use dare_simcore::check::{InvariantId as Inv, Invariants};

/// What the next check must re-visit, plus the running work count.
#[derive(Debug, Clone, Default)]
pub(super) struct Marks {
    /// Blocks marked by the engine (lost-set inserts) and drained from
    /// the DFS touch log.
    blocks: Vec<u64>,
    /// Recovery transfers started since the last check.
    xfers: Vec<FlowId>,
    /// Reusable buffer for the node table's touch log.
    nodes: Vec<u32>,
    /// Node and block entries visited by every check so far.
    cells: u64,
}

impl Marks {
    /// Marks for a run; an armed run starts with every block marked (the
    /// node table marks its own nodes).
    pub(super) fn new(armed: bool, blocks: usize) -> Self {
        Marks {
            blocks: if armed {
                (0..blocks as u64).collect()
            } else {
                Vec::new()
            },
            ..Marks::default()
        }
    }
}

impl Engine {
    /// Node and block entries the per-event invariant check has visited
    /// so far: a deterministic work counter, zero for unarmed runs.
    pub fn invariant_cells(&self) -> u64 {
        self.marks.cells
    }

    /// Record block `b` as lost (every physical copy gone).
    pub(super) fn mark_lost(&mut self, b: BlockId) {
        self.lost_blocks.insert(b.0);
        if self.cfg.check_invariants {
            self.marks.blocks.push(b.0);
        }
    }

    /// Track a re-replication transfer that just started.
    pub(super) fn start_recovery_xfer(&mut self, fid: FlowId, rx: RecoveryXfer) {
        self.recovery_flows.insert(fid, rx);
        if self.cfg.check_invariants {
            self.marks.xfers.push(fid);
        }
    }

    /// Structural invariants, checked after every event when
    /// `SimConfig::check_invariants` is set. Every check is a named entry
    /// of the shared [`dare_simcore::check::InvariantId`] catalog, so the
    /// engine's per-event checks, the property suites, and the bounded
    /// model checker all report violations under the same names.
    pub(super) fn check_invariants(&mut self) -> Result<(), crate::SimError> {
        let verdict = self.check_touched();
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            verdict,
            self.full_scan(),
            "incremental invariant check disagrees with the full-scan oracle at t={}",
            self.now
        );
        verdict
    }

    /// Check the entries marked since the last call, then clear the marks.
    fn check_touched(&mut self) -> Result<(), crate::SimError> {
        let mut m = std::mem::take(&mut self.marks);
        self.nodes.drain_touched(&mut m.nodes);
        m.blocks.extend(self.dfs.drain_touched().map(|b| b.0));
        m.nodes.sort_unstable();
        m.nodes.dedup();
        m.blocks.sort_unstable();
        m.blocks.dedup();

        let mut inv = Invariants::new();
        for &i in &m.nodes {
            self.check_node(&mut inv, i as usize);
        }
        self.check_stream_cap(&mut inv);
        let mut xfers: Vec<&RecoveryXfer> = m
            .xfers
            .iter()
            .filter_map(|fid| self.recovery_flows.get(fid))
            .collect();
        xfers.sort_unstable_by_key(|r| (r.block, r.dst));
        for rx in &xfers {
            self.check_xfer(&mut inv, rx);
        }
        let mut lost = 0u64;
        for &b in &m.blocks {
            if self.lost_blocks.contains(&b) {
                self.check_lost(&mut inv, b);
                lost += 1;
            }
        }
        for &b in &m.blocks {
            self.check_block(&mut inv, BlockId(b));
        }

        m.cells += (m.nodes.len() + xfers.len() + m.blocks.len()) as u64 + lost;
        m.nodes.clear();
        m.blocks.clear();
        m.xfers.clear();
        self.marks = m;
        inv.into_result()
            .map_err(crate::SimError::InvariantViolation)
    }

    /// The full scan the incremental check replaces: every node, every
    /// in-flight transfer, every lost block and every block.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn full_scan(&self) -> Result<(), crate::SimError> {
        let mut inv = Invariants::new();
        for i in 0..self.nodes.len() {
            self.check_node(&mut inv, i);
        }
        self.check_stream_cap(&mut inv);
        let mut xfers: Vec<&RecoveryXfer> = self.recovery_flows.values().collect();
        xfers.sort_unstable_by_key(|r| (r.block, r.dst));
        for rx in xfers {
            self.check_xfer(&mut inv, rx);
        }
        let mut lost: Vec<u64> = self.lost_blocks.iter().copied().collect();
        lost.sort_unstable();
        for b in lost {
            self.check_lost(&mut inv, b);
        }
        for b in 0..self.dfs.namenode().num_blocks() {
            self.check_block(&mut inv, BlockId(b as u64));
        }
        self.assert_disk_counts();
        inv.into_result()
            .map_err(crate::SimError::InvariantViolation)
    }

    /// The DFS's running copy counts and usage totals equal a scan of its
    /// data nodes.
    #[cfg(any(test, debug_assertions))]
    fn assert_disk_counts(&self) {
        let mut copies = vec![0u32; self.dfs.namenode().num_blocks()];
        let dns = self.dfs.datanodes();
        for dn in dns {
            let mut held = dn.all_blocks();
            held.dedup(); // a block both primary and dynamic here
            for b in held {
                copies[b.idx()] += 1;
            }
        }
        for (b, &scan) in copies.iter().enumerate() {
            let count = self.dfs.physical_copies(BlockId(b as u64));
            assert_eq!(count, scan, "copy count of block {b} drifted at t={}", self.now);
        }
        let sum = |f: fn(&dare_dfs::datanode::DataNode) -> u64| dns.iter().map(f).sum::<u64>();
        let totals = [
            (self.dfs.total_primary_bytes(), sum(|d| d.primary_bytes())),
            (self.dfs.total_dynamic_bytes(), sum(|d| d.dynamic_bytes())),
            (self.dfs.total_dynamic_replicas(), sum(|d| d.dynamic_count() as u64)),
            (self.dfs.total_corrupt_replicas(), sum(|d| d.corrupt_count() as u64)),
        ];
        for (i, (total, scan)) in totals.into_iter().enumerate() {
            assert_eq!(total, scan, "DFS usage total {i} drifted at t={}", self.now);
        }
    }

    /// Slot conservation on a live node, declared-implies-crashed on a
    /// declared one, and reduce-index membership on every node.
    fn check_node(&self, inv: &mut Invariants, i: usize) {
        let slots = self.cfg.profile.map_slots_per_node;
        let rslots = self.cfg.profile.reduce_slots_per_node;
        let n = &self.nodes;
        if n.up(i) {
            inv.check_id(
                Inv::SlotConservation,
                n.free_map(i) + n.running_on(i).len() as u32 == slots,
                || {
                    format!(
                        "node {i}: map slots drifted ({} free + {} running != {slots})",
                        n.free_map(i),
                        n.running_on(i).len()
                    )
                },
            );
            inv.check_id(
                Inv::SlotConservation,
                n.free_reduce(i) + n.running_reduces(i) == rslots,
                || {
                    format!(
                        "node {i}: reduce slots drifted ({} free + {} running != {rslots})",
                        n.free_reduce(i),
                        n.running_reduces(i)
                    )
                },
            );
        } else if n.declared(i) {
            inv.check_id(Inv::DeclaredImpliesCrashed, n.crashed(i), || {
                format!("node {i} declared dead while running")
            });
            inv.check_id(
                Inv::DeclaredImpliesCrashed,
                n.free_map(i) == 0 && n.free_reduce(i) == 0,
                || format!("declared node {i} still advertises slots"),
            );
        }
        inv.check_id(
            Inv::SchedulerIndexSync,
            (n.free_reduce(i) > 0) == n.reduce_indexed(i),
            || {
                format!(
                    "node {i}: reduce free-node index out of sync ({} free, indexed: {})",
                    n.free_reduce(i),
                    n.reduce_indexed(i)
                )
            },
        );
    }

    fn check_stream_cap(&self, inv: &mut Invariants) {
        inv.check_id(
            Inv::RecoveryStreamCap,
            self.recovery_flows.len() <= self.cfg.faults.max_recovery_streams,
            || {
                format!(
                    "{} recovery streams exceed the cap of {}",
                    self.recovery_flows.len(),
                    self.cfg.faults.max_recovery_streams
                )
            },
        );
    }

    /// Need-driven repair: the transfer started while its block was
    /// under-replicated.
    fn check_xfer(&self, inv: &mut Invariants, rx: &RecoveryXfer) {
        let rf = self.cfg.dfs.replication_factor;
        inv.check_id(
            Inv::RereplicationConvergence,
            rx.visible_at_start < rf,
            || {
                format!(
                    "repair of block {} to node {} started at {} visible replicas (RF {rf})",
                    rx.block.0, rx.dst, rx.visible_at_start
                )
            },
        );
    }

    fn check_lost(&self, inv: &mut Invariants, b0: u64) {
        let copy = self.dfs.physical_copies(BlockId(b0)) > 0;
        inv.check_id(Inv::LostBlocksUnrecoverable, !copy, || {
            format!("block {b0} marked lost while a physical copy survives")
        });
    }

    /// Master/disk coherence on live nodes: every scheduler-visible
    /// location physically holds the block (a quarantined or evicted
    /// replica must vanish from both sides — no read can be routed to a
    /// node that cannot serve it). Crashed-but-undetected nodes are
    /// exempt: the master's view legitimately lags a silent failure.
    /// Primary locations are bounded by the replication target plus one
    /// per node-rejoin: a rejoining node re-registers primaries it still
    /// holds, and this model (unlike real HDFS) never deletes the
    /// over-replicated excess.
    fn check_block(&self, inv: &mut Invariants, b: BlockId) {
        for &loc in self.dfs.visible_locations(b) {
            if self.node_up(loc.idx()) {
                inv.check_id(
                    Inv::QuarantineNoReads,
                    self.dfs.is_physically_present(loc, b),
                    || {
                        format!(
                            "block {} visible on live node {} with no physical replica",
                            b.0, loc.0
                        )
                    },
                );
            }
        }
        let rf = self.cfg.dfs.replication_factor as usize;
        let primaries = self.dfs.namenode().primary_locations(b).len();
        inv.check_id(
            Inv::PrimaryWithinRf,
            primaries <= rf + self.stats.nodes_rejoined as usize,
            || {
                format!(
                    "block {} holds {primaries} primary locations (RF {rf}, {} rejoin(s))",
                    b.0, self.stats.nodes_rejoined
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedulerKind, SimConfig, StepOutcome};
    use dare_core::PolicyKind;
    use dare_net::{NodeId, MB};
    use dare_simcore::{SimDuration, SimTime};
    use dare_workload::{FileSpec, JobSpec, Workload};

    const NODES: u32 = 8;
    const BLOCKS: u64 = 6;

    fn engine(armed: bool) -> Engine {
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 0xC4EC);
        cfg.profile = dare_net::ClusterProfile::scale(NODES);
        cfg.dfs.replication_factor = 2;
        cfg.faults.max_recovery_streams = 2;
        cfg.check_invariants = armed;
        let wl = Workload {
            name: "check".into(),
            files: vec![FileSpec {
                name: "f0".into(),
                size_bytes: BLOCKS * 128 * MB,
            }],
            jobs: (0..4)
                .map(|id| JobSpec {
                    id,
                    arrival: SimTime::from_secs(id as u64 * 5),
                    file: 0,
                    map_compute: SimDuration::from_secs(20),
                    reduces: 1,
                    output_bytes: 10 * MB,
                })
                .collect(),
        };
        Engine::new(cfg, &wl)
    }

    /// An engine after `steps` clean events.
    fn stepped(steps: usize) -> Engine {
        let mut eng = engine(true);
        for _ in 0..steps {
            let out = eng.step().expect("clean run");
            assert_eq!(out, StepOutcome::Progressed);
        }
        eng
    }

    fn live_node(eng: &Engine, pred: impl Fn(&Engine, usize) -> bool) -> usize {
        (0..eng.nodes.len())
            .find(|&i| eng.nodes.up(i) && pred(eng, i))
            .expect("a live node in the wanted state")
    }

    /// A deliberate break of one invariant.
    type Fault = fn(&mut Engine);

    /// One fault per structural invariant of the catalog, each applied
    /// through the engine's ordinary mutators (so through its marks).
    fn faults() -> Vec<(Inv, Fault)> {
        vec![
            (Inv::SlotConservation, |eng| {
                // An attempt leaves without returning its map slot.
                let i = live_node(eng, |e, i| !e.nodes.running_on(i).is_empty());
                eng.nodes.running_on_mut(i).pop();
            }),
            (Inv::DeclaredImpliesCrashed, |eng| {
                let i = live_node(eng, |_, _| true);
                eng.nodes.set_declared(i, true);
            }),
            (Inv::SchedulerIndexSync, |eng| {
                let i = live_node(eng, |e, i| e.nodes.free_reduce(i) > 0);
                eng.nodes.index_reduce_free(i, false);
            }),
            (Inv::RecoveryStreamCap, |eng| {
                // Healthy (under-RF at start) phantom transfers past the cap.
                let cap = eng.cfg.faults.max_recovery_streams as u64;
                for k in 0..=cap {
                    let rx = RecoveryXfer {
                        block: BlockId(k),
                        src: 0,
                        dst: 1,
                        visible_at_start: 0,
                    };
                    eng.start_recovery_xfer(FlowId(u64::MAX - k), rx);
                }
            }),
            (Inv::LostBlocksUnrecoverable, |eng| {
                eng.mark_lost(BlockId(BLOCKS - 1))
            }),
            (Inv::PrimaryWithinRf, |eng| {
                // A phantom recovery commit on a node without the block.
                let b = BlockId(1);
                let i = live_node(eng, |e, i| {
                    !e.dfs.is_physically_present(NodeId(i as u32), b)
                });
                eng.dfs.add_replica(b, NodeId(i as u32));
            }),
            (Inv::QuarantineNoReads, |eng| {
                // A live node's disk vanishes under the master's view.
                let b = BlockId(2);
                let i = live_node(eng, |e, i| {
                    e.dfs.visible_locations(b).contains(&NodeId(i as u32))
                });
                eng.dfs.wipe_node(NodeId(i as u32));
            }),
            (Inv::RereplicationConvergence, |eng| {
                let rx = RecoveryXfer {
                    block: BlockId(3),
                    src: 0,
                    dst: 1,
                    visible_at_start: eng.cfg.dfs.replication_factor,
                };
                eng.start_recovery_xfer(FlowId(u64::MAX), rx);
            }),
        ]
    }

    /// Every structural invariant has a fault, and the incremental check
    /// reports each one exactly as the full scan does, at the step the
    /// fault lands — so no mutator the faults go through forgot its mark.
    #[test]
    fn incremental_check_catches_every_fault_like_the_full_scan() {
        let faults = faults();
        let terminal_or_path = [
            Inv::NoLossBelowRf,
            Inv::TerminalCompleteness,
            Inv::LocalityPartition,
        ];
        for id in Inv::ALL {
            let covered = faults.iter().any(|(f, _)| *f == id);
            assert_eq!(covered, !terminal_or_path.contains(&id), "{}", id.name());
        }
        for steps in [12, 60] {
            for (id, fault) in &faults {
                let mut eng = stepped(steps);
                fault(&mut eng);
                let verdict = eng.check_touched();
                assert_eq!(
                    verdict,
                    eng.full_scan(),
                    "{} after {steps} steps",
                    id.name()
                );
                let msg = verdict.expect_err("fault is reported").to_string();
                assert!(
                    msg.contains(&format!("[{}]", id.name())),
                    "{} after {steps} steps: {msg}",
                    id.name()
                );
            }
        }
    }

    /// The check visits only what an event touched, and an unarmed run
    /// logs nothing.
    #[test]
    fn clean_run_visits_a_fraction_of_the_full_scan() {
        let mut eng = engine(true);
        let mut steps = 0u64;
        while eng.step().expect("clean run") == StepOutcome::Progressed {
            steps += 1;
        }
        let full_per_step = NODES as u64 + eng.dfs.namenode().num_blocks() as u64;
        assert!(eng.invariant_cells() > 0);
        assert!(
            eng.invariant_cells() * 3 < steps * full_per_step,
            "{} cells over {steps} steps",
            eng.invariant_cells()
        );

        let mut off = engine(false);
        while off.step().expect("clean run") == StepOutcome::Progressed {}
        assert_eq!(off.invariant_cells(), 0);
        let mut touched = Vec::new();
        off.nodes.drain_touched(&mut touched);
        assert!(touched.is_empty());
        assert_eq!(off.dfs.drain_touched().count(), 0);
        assert!(off.marks.blocks.is_empty() && off.marks.xfers.is_empty());
    }

    /// A lost-block report lists blocks in ascending id order.
    #[test]
    fn lost_blocks_are_reported_in_ascending_order() {
        let mut eng = stepped(0);
        for b in [4, 0, 2] {
            eng.mark_lost(BlockId(b));
        }
        let verdict = eng.check_touched();
        assert_eq!(verdict, eng.full_scan());
        let msg = verdict.expect_err("three lost blocks").to_string();
        let at = |b: u64| {
            msg.find(&format!("block {b} marked lost"))
                .expect("reported")
        };
        assert!(at(0) < at(2) && at(2) < at(4), "{msg}");
    }
}
