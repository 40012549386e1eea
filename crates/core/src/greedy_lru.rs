//! Algorithm 1 — greedy admission with LRU eviction — pinned as unit
//! tests of [`crate::Policy`] under [`crate::PolicyKind::GreedyLru`].

#[cfg(test)]
mod tests {
    use crate::policy::{Policy, PolicyCtx, PolicyKind, ReplicationDecision};
    use dare_dfs::{BlockId, FileId};
    use dare_simcore::DetRng;

    const BLK: u64 = 128;

    fn lru(budget_bytes: u64) -> Policy {
        Policy::new(PolicyKind::GreedyLru, budget_bytes)
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
    fn replicates_every_remote_access_until_budget() {
        let mut p = lru(3 * BLK);
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
        assert_eq!(p.stats().replicas_created, 3);
    }

    #[test]
    fn evicts_lru_when_budget_full() {
        let mut p = lru(2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.on_map_task(ctx(&mut rng, 2, 2, false));
        // Block 1 is LRU; inserting block 3 evicts it.
        let d = p.on_map_task(ctx(&mut rng, 3, 3, false));
        assert_eq!(
            d,
            ReplicationDecision {
                evict: vec![BlockId(1)],
                replicate: true,
            }
        );
        assert_eq!(p.used_bytes(), 2 * BLK);
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn local_read_refreshes_lru_position() {
        let mut p = lru(2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.on_map_task(ctx(&mut rng, 2, 2, false));
        // Touch block 1 locally: now block 2 is LRU.
        assert_eq!(
            p.on_map_task(ctx(&mut rng, 1, 1, true)),
            ReplicationDecision::SKIP
        );
        let d = p.on_map_task(ctx(&mut rng, 3, 3, false));
        assert_eq!(
            d,
            ReplicationDecision {
                evict: vec![BlockId(2)],
                replicate: true,
            }
        );
    }

    #[test]
    fn same_file_victims_are_skipped() {
        let mut p = lru(2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 7, false)); // file 7 (LRU)
        p.on_map_task(ctx(&mut rng, 2, 8, false)); // file 8
                                                   // Inserting another block of file 7 must evict file 8's block even
                                                   // though file 7's is least recently used.
        let d = p.on_map_task(ctx(&mut rng, 3, 7, false));
        assert_eq!(
            d,
            ReplicationDecision {
                evict: vec![BlockId(2)],
                replicate: true,
            }
        );
    }

    #[test]
    fn all_same_file_means_no_victim_and_no_insert() {
        let mut p = lru(BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 7, false));
        let d = p.on_map_task(ctx(&mut rng, 2, 7, false));
        assert_eq!(d, ReplicationDecision::SKIP);
        assert_eq!(p.stats().skipped_no_victim, 1);
        assert!(p.tracked_count() == 1);
    }

    #[test]
    fn oversized_block_is_skipped() {
        let mut p = lru(BLK - 1);
        let mut rng = DetRng::new(1);
        let d = p.on_map_task(ctx(&mut rng, 1, 1, false));
        assert_eq!(d, ReplicationDecision::SKIP);
        assert_eq!(p.stats().skipped_no_victim, 1);
    }

    #[test]
    fn remote_access_to_already_tracked_block_is_refresh_not_duplicate() {
        // A replica exists locally but isn't scheduler-visible yet, so the
        // scheduler sent us a "remote" task for a block we already hold.
        let mut p = lru(2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        let d = p.on_map_task(ctx(&mut rng, 1, 1, false));
        assert_eq!(d, ReplicationDecision::SKIP);
        assert_eq!(p.used_bytes(), BLK);
        assert_eq!(p.stats().replicas_created, 1);
    }

    #[test]
    fn forget_releases_budget() {
        let mut p = lru(2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.forget(BlockId(1));
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.tracked_count(), 0);
        // Forgetting twice is harmless.
        p.forget(BlockId(1));
        // Budget is genuinely reusable.
        p.on_map_task(ctx(&mut rng, 2, 2, false));
        p.on_map_task(ctx(&mut rng, 3, 3, false));
        assert_eq!(p.used_bytes(), 2 * BLK);
    }

    #[test]
    fn budget_never_exceeded_under_random_workload() {
        let mut p = lru(5 * BLK);
        let mut rng = DetRng::new(99);
        let mut coin = DetRng::new(100);
        for i in 0..2000u64 {
            let block = coin.index(40) as u64;
            let file = (block / 4) as u32;
            let is_local = coin.coin(0.3);
            let _ = p.on_map_task(PolicyCtx {
                block: BlockId(block),
                file: FileId(file),
                block_bytes: BLK,
                is_local,
                rng: &mut rng,
            });
            assert!(p.used_bytes() <= 5 * BLK, "budget violated at step {i}");
        }
        assert!(p.stats().replicas_created > 0);
    }
}
