//! Algorithm 2 — the sampling coin with ElephantTrap eviction — pinned as
//! unit tests of [`crate::Policy`] under [`crate::PolicyKind::ElephantTrap`].

#[cfg(test)]
mod tests {
    use crate::policy::{Policy, PolicyCtx, PolicyKind, PolicyStats, ReplicationDecision};
    use dare_dfs::{BlockId, FileId};
    use dare_simcore::DetRng;

    const BLK: u64 = 128;

    fn trap(p: f64, threshold: u64, budget_bytes: u64) -> Policy {
        Policy::new(PolicyKind::ElephantTrap { p, threshold }, budget_bytes)
    }

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
        let mut p = trap(1.0, 1, 3 * BLK);
        let mut rng = DetRng::new(1);
        for i in 0..3 {
            let d = p.on_map_task(ctx(&mut rng, i, i as u32, false));
            assert_eq!(
                d,
                ReplicationDecision {
                    evict: vec![],
                    replicate: true,
                }
            );
        }
        assert_eq!(p.used_bytes(), 3 * BLK);
    }

    #[test]
    fn p_zero_never_replicates() {
        let mut p = trap(0.0, 1, 10 * BLK);
        let mut rng = DetRng::new(1);
        for i in 0..50 {
            assert_eq!(
                p.on_map_task(ctx(&mut rng, i, 0, false)),
                ReplicationDecision::SKIP
            );
        }
        assert_eq!(p.stats().skipped_by_sampling, 50);
        assert_eq!(p.stats().replicas_created, 0);
    }

    #[test]
    fn sampling_rate_tracks_p() {
        let mut p = trap(0.3, 1, u64::MAX);
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
        let mut p = trap(1.0, 1, 10 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 5, 0, false));
        assert_eq!(p.trap.count(&BlockId(5)), Some(0));
        for _ in 0..4 {
            p.on_map_task(ctx(&mut rng, 5, 0, true));
        }
        assert_eq!(p.trap.count(&BlockId(5)), Some(4), "p=1: every hit lands");

        // With p=0 no refresh ever lands.
        let mut q = trap(0.0, 1, 10 * BLK);
        q.on_map_task(ctx(&mut rng, 5, 0, true));
        assert_eq!(q.trap.count(&BlockId(5)), None);
        assert_eq!(q.stats(), PolicyStats::default());
    }

    #[test]
    fn eviction_prefers_cold_blocks() {
        let mut p = trap(1.0, 1, 2 * BLK);
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
            ReplicationDecision {
                evict: vec![BlockId(2)],
                replicate: true,
            },
            "cold block evicted, hot block survives"
        );
        assert!(p.tracked_blocks().any(|b| b == BlockId(1)));
    }

    #[test]
    fn hot_everything_blocks_replication() {
        let mut p = trap(1.0, 1, 2 * BLK);
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
        assert_eq!(d, ReplicationDecision::SKIP);
        assert_eq!(p.stats().skipped_no_victim, 1);
        // Aging is persistent: enough repeated attempts eventually evict.
        let mut evicted = false;
        for i in 0..8 {
            if p.on_map_task(ctx(&mut rng, 100 + i, 50, false)).replicate {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "competitive aging must eventually yield a victim");
    }

    #[test]
    fn same_file_exclusion_can_abort_replication() {
        let mut p = trap(1.0, 1, BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 7, false));
        // Only tracked block belongs to file 7; inserting file 7 again must
        // not evict it.
        let d = p.on_map_task(ctx(&mut rng, 2, 7, false));
        assert_eq!(d, ReplicationDecision::SKIP);
        assert!(p.tracked_blocks().any(|b| b == BlockId(1)));
        // A different file can claim the slot.
        let d = p.on_map_task(ctx(&mut rng, 3, 8, false));
        assert_eq!(
            d,
            ReplicationDecision {
                evict: vec![BlockId(1)],
                replicate: true,
            }
        );
    }

    #[test]
    fn failed_sweep_after_an_eviction_evicts_without_inserting() {
        // Blocks of unequal size: half a block of file 1, then one and a
        // half blocks of file 2, filling the budget.
        let mut p = trap(1.0, 1, 2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(PolicyCtx {
            block_bytes: BLK / 2,
            ..ctx(&mut rng, 1, 1, false)
        });
        p.on_map_task(PolicyCtx {
            block_bytes: 3 * BLK / 2,
            ..ctx(&mut rng, 2, 2, false)
        });
        // Inserting file 2's block 3 frees block 1, then the sweep finds no
        // other victim: the eviction stands, the insert does not.
        let d = p.on_map_task(ctx(&mut rng, 3, 2, false));
        assert_eq!(
            d,
            ReplicationDecision {
                evict: vec![BlockId(1)],
                replicate: false,
            }
        );
        assert_eq!(p.tracked_blocks().collect::<Vec<_>>(), vec![BlockId(2)]);
        assert_eq!(p.used_bytes(), 3 * BLK / 2);
        assert_eq!(p.stats().skipped_no_victim, 1);
    }

    #[test]
    fn forget_releases_budget_and_trap_slot() {
        let mut p = trap(1.0, 1, BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.forget(BlockId(1));
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.tracked_count(), 0);
        assert_eq!(p.trap.count(&BlockId(1)), None);
        p.forget(BlockId(1)); // idempotent
        let d = p.on_map_task(ctx(&mut rng, 2, 2, false));
        assert_eq!(
            d,
            ReplicationDecision {
                evict: vec![],
                replicate: true,
            }
        );
    }

    #[test]
    fn budget_never_exceeded_under_random_workload() {
        let mut p = trap(0.5, 2, 7 * BLK);
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
        let _ = trap(1.5, 1, 100);
    }
}
