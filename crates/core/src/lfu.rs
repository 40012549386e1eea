//! The least-frequently-used ablation — greedy admission with LFU
//! eviction — pinned as unit tests of [`crate::Policy`] under
//! [`crate::PolicyKind::Lfu`].

#[cfg(test)]
mod tests {
    use crate::policy::{Policy, PolicyCtx, PolicyKind, ReplicationDecision};
    use dare_dfs::{BlockId, FileId};
    use dare_simcore::DetRng;

    const BLK: u64 = 128;

    fn lfu(budget_bytes: u64) -> Policy {
        Policy::new(PolicyKind::Lfu, budget_bytes)
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
    fn evicts_least_frequent() {
        let mut p = lfu(2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.on_map_task(ctx(&mut rng, 2, 2, false));
        // Block 1 gets 3 hits, block 2 gets 1.
        for _ in 0..3 {
            p.on_map_task(ctx(&mut rng, 1, 1, true));
        }
        p.on_map_task(ctx(&mut rng, 2, 2, true));
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
    fn frequency_ties_evict_oldest() {
        let mut p = lfu(2 * BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.on_map_task(ctx(&mut rng, 2, 2, false));
        let d = p.on_map_task(ctx(&mut rng, 3, 3, false));
        assert_eq!(
            d,
            ReplicationDecision {
                evict: vec![BlockId(1)],
                replicate: true,
            }
        );
    }

    #[test]
    fn same_file_exclusion_holds() {
        let mut p = lfu(BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 7, false));
        assert_eq!(
            p.on_map_task(ctx(&mut rng, 2, 7, false)),
            ReplicationDecision::SKIP
        );
        assert_eq!(p.stats().skipped_no_victim, 1);
    }

    #[test]
    fn budget_respected_under_churn() {
        let mut p = lfu(4 * BLK);
        let mut rng = DetRng::new(5);
        let mut wl = DetRng::new(6);
        for _ in 0..3000 {
            let b = wl.index(30) as u64;
            p.on_map_task(ctx(&mut rng, b, (b / 3) as u32, wl.coin(0.5)));
            assert!(p.used_bytes() <= 4 * BLK);
        }
        assert!(p.stats().replicas_created > 0);
    }

    #[test]
    fn forget_is_idempotent() {
        let mut p = lfu(BLK);
        let mut rng = DetRng::new(1);
        p.on_map_task(ctx(&mut rng, 1, 1, false));
        p.forget(BlockId(1));
        p.forget(BlockId(1));
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.tracked_count(), 0);
    }
}
