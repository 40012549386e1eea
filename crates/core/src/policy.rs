//! One per-node replication policy: Algorithms 1 and 2 and the LFU
//! ablation over one shared budgeted store.
//!
//! A [`Policy`] lives on one data node. The MapReduce engine calls
//! [`Policy::on_map_task`] for **every** map task scheduled on that node —
//! local or not — because both algorithms react to both kinds: non-local
//! tasks are replication opportunities, local hits refresh
//! recency/frequency state.
//!
//! The schemes share everything but four decisions. Shared: the tracked
//! dynamic replicas (block → file, bytes), the per-node byte budget, lazy
//! deletion (a victim leaves the bookkeeping at once; the engine drops its
//! bytes) and same-file victim exclusion (same file ⇒ same popularity ⇒
//! pointless swap). Where the paper differs:
//!
//! * **Sampling.** Algorithm 2 draws its coin with probability *p* first,
//!   on every call; tails ends the call. Sampling ignores most accesses to
//!   unpopular data (jobs with few map tasks get poor locality and would
//!   otherwise pollute the replica store — Section IV-B), while popular
//!   files see enough accesses that some draws land heads.
//! * **Refresh.** A hit on a tracked block moves LRU's block to the
//!   most-recently-used end (`blocksInUsageOrder` is "refreshed on every
//!   read"), adds one to LFU's frequency, and adds one to the trap's access
//!   count.
//! * **Pre-check.** Greedy admission (LRU, LFU) skips up front when the
//!   bytes pinned by same-file blocks leave no room, so its evictions always
//!   make room. The trap sweep ages as it goes and may fail part-way.
//! * **Victim choice.** LRU and LFU evict the eligible tracked block with
//!   the smallest rank: (0, last touch) for LRU, (frequency, insertion) for
//!   LFU, so frequency ties evict the oldest. ElephantTrap walks its
//!   [`CircularTrap`], halving counts until one falls below the threshold:
//!   a block survives only as long as its access rate out-earns the
//!   halving — the "fast and large flows" criterion of the original
//!   heavy-hitter detector.

use crate::trap::CircularTrap;
use dare_dfs::{BlockId, FileId};
use dare_simcore::{DetRng, FxHashMap};

/// What the node should do about the block a just-scheduled map task reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationDecision {
    /// Dynamic replicas to evict first, in order (budget space).
    pub evict: Vec<BlockId>,
    /// Insert a dynamic replica of the task's block after the evictions.
    /// False with a non-empty `evict` when an ElephantTrap victim search
    /// failed part-way: the evictions stand (their aging was earned), only
    /// the insert is abandoned.
    pub replicate: bool,
}

impl ReplicationDecision {
    /// Leave the file system untouched.
    pub const SKIP: Self = ReplicationDecision {
        evict: Vec::new(),
        replicate: false,
    };
}

/// Everything a policy may inspect about one scheduled map task.
pub struct PolicyCtx<'a> {
    /// The block the map task reads.
    pub block: BlockId,
    /// Owning file (the INode back-pointer — same-file victim exclusion).
    pub file: FileId,
    /// Size of the block in bytes.
    pub block_bytes: u64,
    /// True when a replica of the block is already on this node
    /// (the task is data-local).
    pub is_local: bool,
    /// The node's deterministic RNG substream (the Algorithm 2 coin).
    pub rng: &'a mut DetRng,
}

/// Counters every policy maintains; the thrashing and sensitivity analyses
/// (Figs. 8-9 and the disk-write ablation) read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Dynamic replicas created on this node.
    pub replicas_created: u64,
    /// Victims evicted to make room.
    pub evictions: u64,
    /// Non-local tasks ignored because the sampling coin said no.
    pub skipped_by_sampling: u64,
    /// Replications abandoned because no eviction victim qualified.
    pub skipped_no_victim: u64,
}

/// Which replication scheme to run, with its parameters — the configuration
/// surface the paper's Section V sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Vanilla Hadoop (no dynamic replication).
    Vanilla,
    /// Algorithm 1: greedy replication with LRU eviction.
    GreedyLru,
    /// Algorithm 2: probabilistic replication with ElephantTrap eviction.
    ElephantTrap {
        /// Sampling probability `p` (paper default 0.3).
        p: f64,
        /// Aging threshold (paper default 1).
        threshold: u64,
    },
    /// Least-frequently-used eviction ablation (greedy admission).
    Lfu,
}

impl PolicyKind {
    /// The paper's headline configuration of Algorithm 2
    /// (`p = 0.3`, `threshold = 1`; Figs. 7 and 10).
    pub fn elephant_default() -> Self {
        PolicyKind::ElephantTrap {
            p: 0.3,
            threshold: 1,
        }
    }

    /// Short label used by result tables.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Vanilla => "vanilla".into(),
            PolicyKind::GreedyLru => "lru".into(),
            PolicyKind::ElephantTrap { p, threshold } => {
                format!("elephant-trap(p={p},thr={threshold})")
            }
            PolicyKind::Lfu => "lfu".into(),
        }
    }
}

/// Per-tracked-block record.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    file: FileId,
    bytes: u64,
    /// LRU and LFU eviction order, smallest first: (0, last touch) under
    /// LRU, (frequency, insertion) under LFU. Unused by ElephantTrap.
    rank: (u64, u64),
}

/// One node's dynamic-replica store under one [`PolicyKind`].
#[derive(Debug, Clone)]
pub struct Policy {
    kind: PolicyKind,
    budget_bytes: u64,
    used_bytes: u64,
    tracked: FxHashMap<BlockId, Tracked>,
    /// Last touch or insertion sequence number handed out (the ranks).
    seq: u64,
    /// The ElephantTrap circular list; empty under the other kinds.
    pub(crate) trap: CircularTrap<BlockId>,
    stats: PolicyStats,
}

impl Policy {
    /// Policy of `kind` with a dynamic-replica budget of `budget_bytes` on
    /// this node. Panics when an ElephantTrap `p` is not a probability.
    pub fn new(kind: PolicyKind, budget_bytes: u64) -> Self {
        if let PolicyKind::ElephantTrap { p, .. } = kind {
            assert!((0.0..=1.0).contains(&p), "p must be a probability");
        }
        Policy {
            kind,
            budget_bytes,
            used_bytes: 0,
            tracked: FxHashMap::default(),
            seq: 0,
            trap: CircularTrap::new(),
            stats: PolicyStats::default(),
        }
    }

    /// Bytes of budget currently in use.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of tracked dynamic replicas.
    pub fn tracked_count(&self) -> usize {
        self.tracked.len()
    }

    /// The tracked dynamic replicas, in no particular order.
    pub fn tracked_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.tracked.keys().copied()
    }

    /// Counters so far.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// React to a map task scheduled on this node. The engine applies the
    /// returned decision to the file system (evictions first, then insert)
    /// and only then considers the replica created.
    pub fn on_map_task(&mut self, ctx: PolicyCtx<'_>) -> ReplicationDecision {
        match self.kind {
            PolicyKind::Vanilla => return ReplicationDecision::SKIP,
            // "Generate a random number r ∈ (0,1); if r < p" — one coin
            // gates both the replication and the access-count refresh.
            PolicyKind::ElephantTrap { p, .. } if !ctx.rng.coin(p) => {
                if !ctx.is_local {
                    self.stats.skipped_by_sampling += 1;
                }
                return ReplicationDecision::SKIP;
            }
            _ => {}
        }

        // A tracked block is a hit, local or not: a "remote" task can read
        // a replica held here whose report is still in flight. A primary
        // replica hit has no entry and needs none.
        if let Some(t) = self.tracked.get_mut(&ctx.block) {
            self.seq += 1;
            match self.kind {
                PolicyKind::GreedyLru => t.rank.1 = self.seq,
                PolicyKind::Lfu => t.rank.0 += 1,
                _ => {
                    self.trap.touch(&ctx.block);
                }
            }
            return ReplicationDecision::SKIP;
        }
        if ctx.is_local {
            return ReplicationDecision::SKIP;
        }

        // Bytes pinned by same-file blocks can never be evicted for this
        // insert; greedy admission skips before touching anything if the
        // rest of the budget can't host the block. An oversized block is
        // the pinned-free case of the same test.
        let pinned: u64 = match self.kind {
            PolicyKind::ElephantTrap { .. } => 0,
            _ => self
                .tracked
                .values()
                .filter(|t| t.file == ctx.file)
                .map(|t| t.bytes)
                .sum(),
        };
        if pinned + ctx.block_bytes > self.budget_bytes {
            self.stats.skipped_no_victim += 1;
            return ReplicationDecision::SKIP;
        }

        let mut evict = Vec::new();
        while self.used_bytes + ctx.block_bytes > self.budget_bytes {
            match self.mark_block_for_deletion(ctx.file) {
                Some(v) => evict.push(v),
                None => {
                    // "if return value of call is null ... will not
                    // replicate". Only the trap sweep gets here.
                    self.stats.skipped_no_victim += 1;
                    return ReplicationDecision {
                        evict,
                        replicate: false,
                    };
                }
            }
        }

        self.seq += 1;
        self.tracked.insert(
            ctx.block,
            Tracked {
                file: ctx.file,
                bytes: ctx.block_bytes,
                rank: (0, self.seq),
            },
        );
        if let PolicyKind::ElephantTrap { .. } = self.kind {
            // Right before the eviction pointer, with a zero count.
            self.trap.insert(ctx.block);
        }
        self.used_bytes += ctx.block_bytes;
        self.stats.replicas_created += 1;
        ReplicationDecision {
            evict,
            replicate: true,
        }
    }

    /// Forget a block: its dynamic replica was dropped externally (failure
    /// handling, a checksum failure, a rejected insert). Idempotent.
    pub fn forget(&mut self, block: BlockId) {
        if let Some(rec) = self.tracked.remove(&block) {
            self.used_bytes -= rec.bytes;
            self.trap.remove(&block);
        }
    }

    /// `markBlockForDeletion`: pick a victim outside `evicting_file`,
    /// detach it from the bookkeeping and return it; `None` when no tracked
    /// block qualifies ("couldn't find a block to evict").
    fn mark_block_for_deletion(&mut self, evicting_file: FileId) -> Option<BlockId> {
        let tracked = &self.tracked;
        let victim = match self.kind {
            PolicyKind::ElephantTrap { threshold, .. } => {
                let v = self
                    .trap
                    .find_victim(threshold, |b| tracked[b].file != evicting_file)?;
                self.trap.remove(&v);
                v
            }
            _ => {
                *tracked
                    .iter()
                    .filter(|(_, t)| t.file != evicting_file)
                    .min_by_key(|(_, t)| t.rank)?
                    .0
            }
        };
        let rec = self.tracked.remove(&victim).expect("tracked victim");
        self.used_bytes -= rec.bytes;
        self.stats.evictions += 1;
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_never_replicates() {
        let mut p = Policy::new(PolicyKind::Vanilla, 1 << 30);
        let mut rng = DetRng::new(1);
        for i in 0..100 {
            let d = p.on_map_task(PolicyCtx {
                block: BlockId(i),
                file: FileId(0),
                block_bytes: 128,
                is_local: i % 2 == 0,
                rng: &mut rng,
            });
            assert_eq!(d, ReplicationDecision::SKIP);
        }
        assert_eq!(p.stats(), PolicyStats::default());
        assert_eq!(rng.next_u64(), DetRng::new(1).next_u64(), "no draw");
    }

    #[test]
    fn kind_labels() {
        assert_eq!(PolicyKind::Vanilla.label(), "vanilla");
        assert_eq!(PolicyKind::GreedyLru.label(), "lru");
        assert_eq!(
            PolicyKind::elephant_default().label(),
            "elephant-trap(p=0.3,thr=1)"
        );
        assert_eq!(PolicyKind::Lfu.label(), "lfu");
    }

    #[test]
    fn factory_builds_each_kind() {
        for (kind, replicates) in [
            (PolicyKind::Vanilla, false),
            (PolicyKind::GreedyLru, true),
            (
                PolicyKind::ElephantTrap {
                    p: 1.0,
                    threshold: 1,
                },
                true,
            ),
            (PolicyKind::Lfu, true),
        ] {
            let mut p = Policy::new(kind, 1 << 30);
            let d = p.on_map_task(PolicyCtx {
                block: BlockId(1),
                file: FileId(1),
                block_bytes: 128,
                is_local: false,
                rng: &mut DetRng::new(1),
            });
            assert_eq!(d.replicate, replicates, "{kind:?}");
            assert_eq!(p.tracked_count(), replicates as usize, "{kind:?}");
            assert_eq!(
                p.trap.len(),
                matches!(kind, PolicyKind::ElephantTrap { .. }) as usize
            );
        }
    }
}
