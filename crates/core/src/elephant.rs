//! Algorithm 2 — the probabilistic approach: ElephantTrap-based replication
//! and eviction.
//!
//! A coin with probability `p` gates *everything*: whether a non-local map
//! task triggers replication, and whether a local hit refreshes the access
//! count of an already-replicated block. Sampling ignores most accesses to
//! unpopular data (jobs with few map tasks get poor locality and would
//! otherwise pollute the replica store — Section IV-B), while popular files
//! see enough accesses that some draws land heads.
//!
//! Eviction inherits the ElephantTrap's competitive aging: the victim search
//! walks the circular list halving access counts, so a block survives only
//! as long as its access rate out-earns the halving — exactly the "fast and
//! large flows" criterion of the original heavy-hitter detector.

use crate::policy::{PolicyCtx, PolicyStats, ReplicationDecision, ReplicationPolicy};
use crate::trap::CircularTrap;
use dare_dfs::{BlockId, FileId};
use dare_simcore::FxHashMap;

#[derive(Debug, Clone, Copy)]
struct Tracked {
    file: FileId,
    bytes: u64,
}

/// The probabilistic (ElephantTrap) replication policy of Algorithm 2.
#[derive(Debug)]
pub struct ElephantTrapPolicy {
    /// Sampling probability `p` ∈ [0, 1].
    p: f64,
    /// Aging threshold: a victim must have (halved) count < threshold.
    threshold: u64,
    budget_bytes: u64,
    used_bytes: u64,
    trap: CircularTrap<BlockId>,
    tracked: FxHashMap<BlockId, Tracked>,
    stats: PolicyStats,
}

impl ElephantTrapPolicy {
    /// Policy with sampling probability `p`, aging `threshold`, and a
    /// dynamic-replica budget of `budget_bytes` on this node.
    pub fn new(p: f64, threshold: u64, budget_bytes: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        ElephantTrapPolicy {
            p,
            threshold,
            budget_bytes,
            used_bytes: 0,
            trap: CircularTrap::new(),
            tracked: FxHashMap::default(),
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

    /// `markBlockForDeletion`: one aging sweep of the circular list looking
    /// for a victim outside `evicting_file`. Detaches the victim from the
    /// policy's bookkeeping and returns it; `None` means "couldn't find a
    /// block to evict; will not replicate".
    fn mark_block_for_deletion(&mut self, evicting_file: FileId) -> Option<BlockId> {
        let tracked = &self.tracked;
        let victim = self
            .trap
            .find_victim(self.threshold, |b| tracked[b].file != evicting_file)?;
        self.trap.remove(&victim);
        let rec = self.tracked.remove(&victim).expect("tracked victim");
        self.used_bytes -= rec.bytes;
        self.stats.evictions += 1;
        Some(victim)
    }
}

impl ReplicationPolicy for ElephantTrapPolicy {
    fn on_map_task(&mut self, ctx: PolicyCtx<'_>) -> ReplicationDecision {
        // "Generate a random number r ∈ (0,1); if r < p" — one coin gates
        // both the replication and the access-count refresh.
        if !ctx.rng.coin(self.p) {
            if !ctx.is_local {
                self.stats.skipped_by_sampling += 1;
            }
            return ReplicationDecision::Skip;
        }

        if ctx.is_local {
            // Data-local task: refresh the block's access count if we track
            // it (a primary-replica hit has no entry and needs none).
            if self.trap.touch(&ctx.block) {
                self.stats.refreshes += 1;
            }
            return ReplicationDecision::Skip;
        }

        if self.tracked.contains_key(&ctx.block) {
            // Replica already here (report still in flight); count the hit.
            self.trap.touch(&ctx.block);
            self.stats.refreshes += 1;
            return ReplicationDecision::Skip;
        }

        if ctx.block_bytes > self.budget_bytes {
            self.stats.skipped_no_victim += 1;
            return ReplicationDecision::Skip;
        }

        // Budget check with eviction; a failed victim search aborts the
        // replication ("if return value of call is null ... will not
        // replicate").
        let mut evict = Vec::new();
        while self.used_bytes + ctx.block_bytes > self.budget_bytes {
            match self.mark_block_for_deletion(ctx.file) {
                Some(v) => evict.push(v),
                None => {
                    self.stats.skipped_no_victim += 1;
                    // Evictions already performed stand (their aging was
                    // earned); only the insert is abandoned.
                    return if evict.is_empty() {
                        ReplicationDecision::Skip
                    } else {
                        ReplicationDecision::Replicate { evict }
                    };
                }
            }
        }

        // Insert right before the eviction pointer with a zero count.
        self.trap.insert(ctx.block);
        self.tracked.insert(
            ctx.block,
            Tracked {
                file: ctx.file,
                bytes: ctx.block_bytes,
            },
        );
        self.used_bytes += ctx.block_bytes;
        self.stats.replicas_created += 1;
        self.stats.bytes_replicated += ctx.block_bytes;
        ReplicationDecision::Replicate { evict }
    }

    fn forget(&mut self, block: BlockId) {
        if let Some(rec) = self.tracked.remove(&block) {
            self.used_bytes -= rec.bytes;
            self.trap.remove(&block);
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "elephant-trap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_simcore::DetRng;

    const BLK: u64 = 128;

    fn ctx<'a>(rng: &'a mut DetRng, block: u64, file: u32, is_local: bool) -> PolicyCtx<'a> {
        PolicyCtx {
            block: BlockId(block),
            file: FileId(file),
            block_bytes: BLK,
            is_local,
            rng,
        }
    }

    #[test]
    fn p_one_behaves_greedily_on_remote_reads() {
        let mut p = ElephantTrapPolicy::new(1.0, 1, 3 * BLK);
        let mut rng = DetRng::new(1);
        for i in 0..3 {
            let d = p.on_map_task(ctx(&mut rng, i, i as u32, false));
            assert_eq!(d, ReplicationDecision::Replicate { evict: vec![] });
        }
        assert_eq!(p.used_bytes(), 3 * BLK);
    }

    #[test]
    fn p_zero_never_replicates() {
        let mut p = ElephantTrapPolicy::new(0.0, 1, 10 * BLK);
        let mut rng = DetRng::new(1);
        for i in 0..50 {
            assert_eq!(
                p.on_map_task(ctx(&mut rng, i, 0, false)),
                ReplicationDecision::Skip
            );
        }
        assert_eq!(p.stats().skipped_by_sampling, 50);
        assert_eq!(p.stats().replicas_created, 0);
    }

    #[test]
    fn sampling_rate_tracks_p() {
        let mut p = ElephantTrapPolicy::new(0.3, 1, u64::MAX);
        let mut rng = DetRng::new(42);
        let n = 10_000;
        for i in 0..n {
            p.on_map_task(ctx(&mut rng, i, i as u32, false));
        }
        let frac = p.stats().replicas_created as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "replicated fraction {frac}");
    }

    #[test]
    fn local_hits_increment_count_probabilistically() {
        let mut p = ElephantTrapPolicy::new(1.0, 1, 10 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 5, 0, false));
        assert_eq!(p.trap.count(&BlockId(5)), Some(0));
        for _ in 0..4 {
            p.on_map_task(ctx(&mut rng, 5, 0, true));
        }
        assert_eq!(p.trap.count(&BlockId(5)), Some(4), "p=1: every hit lands");
        assert_eq!(p.stats().refreshes, 4);

        // With p=0 no refresh ever lands.
        let mut q = ElephantTrapPolicy::new(0.0, 1, 10 * BLK);
        q.on_map_task(ctx(&mut rng, 5, 0, true));
        assert_eq!(q.stats().refreshes, 0);
    }

    #[test]
    fn eviction_prefers_cold_blocks() {
        let mut p = ElephantTrapPolicy::new(1.0, 1, 2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.on_map_task(ctx(&mut rng, 2, 2, false));
        // Heat block 1 with local hits; block 2 stays cold.
        for _ in 0..6 {
            p.on_map_task(ctx(&mut rng, 1, 1, true));
        }
        let d = p.on_map_task(ctx(&mut rng, 3, 3, false));
        assert_eq!(
            d,
            ReplicationDecision::Replicate {
                evict: vec![BlockId(2)]
            },
            "cold block evicted, hot block survives"
        );
        assert!(p.tracked.contains_key(&BlockId(1)));
    }

    #[test]
    fn hot_everything_blocks_replication() {
        let mut p = ElephantTrapPolicy::new(1.0, 1, 2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.on_map_task(ctx(&mut rng, 2, 2, false));
        for b in [1u64, 2] {
            for _ in 0..16 {
                p.on_map_task(ctx(&mut rng, b, b as u32, true));
            }
        }
        // Counts 16 & 16; one sweep halves to 8 — still >= threshold.
        let d = p.on_map_task(ctx(&mut rng, 3, 3, false));
        assert_eq!(d, ReplicationDecision::Skip);
        assert_eq!(p.stats().skipped_no_victim, 1);
        // Aging is persistent: enough repeated attempts eventually evict.
        let mut evicted = false;
        for i in 0..8 {
            if let ReplicationDecision::Replicate { .. } =
                p.on_map_task(ctx(&mut rng, 100 + i, 50, false))
            {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "competitive aging must eventually yield a victim");
    }

    #[test]
    fn same_file_exclusion_can_abort_replication() {
        let mut p = ElephantTrapPolicy::new(1.0, 1, BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 7, false));
        // Only tracked block belongs to file 7; inserting file 7 again must
        // not evict it.
        let d = p.on_map_task(ctx(&mut rng, 2, 7, false));
        assert_eq!(d, ReplicationDecision::Skip);
        assert!(p.tracked.contains_key(&BlockId(1)));
        // A different file can claim the slot.
        let d = p.on_map_task(ctx(&mut rng, 3, 8, false));
        assert_eq!(
            d,
            ReplicationDecision::Replicate {
                evict: vec![BlockId(1)]
            }
        );
    }

    #[test]
    fn forget_releases_budget_and_trap_slot() {
        let mut p = ElephantTrapPolicy::new(1.0, 1, BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.forget(BlockId(1));
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.tracked_count(), 0);
        assert_eq!(p.trap.count(&BlockId(1)), None);
        p.forget(BlockId(1)); // idempotent
        let d = p.on_map_task(ctx(&mut rng, 2, 2, false));
        assert_eq!(d, ReplicationDecision::Replicate { evict: vec![] });
    }

    #[test]
    fn budget_never_exceeded_under_random_workload() {
        let mut p = ElephantTrapPolicy::new(0.5, 2, 7 * BLK);
        let mut rng = DetRng::new(2024);
        let mut wl = DetRng::new(7);
        for step in 0..5000u64 {
            let block = wl.index(60) as u64;
            let file = (block / 5) as u32;
            let is_local = wl.coin(0.4);
            p.on_map_task(PolicyCtx {
                block: BlockId(block),
                file: FileId(file),
                block_bytes: BLK,
                is_local,
                rng: &mut rng,
            });
            assert!(p.used_bytes() <= 7 * BLK, "budget violated at {step}");
            assert_eq!(p.tracked_count(), p.trap.len(), "trap/map in sync");
        }
        assert!(p.stats().replicas_created > 0);
        assert!(p.stats().evictions > 0);
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_probability() {
        let _ = ElephantTrapPolicy::new(1.5, 1, 100);
    }
}
