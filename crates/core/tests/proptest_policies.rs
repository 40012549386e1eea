//! Property-based tests of the replication-policy invariants.
//!
//! These model the contract between a policy and the file system: whatever
//! the access sequence and however the block sizes differ, (1) the live
//! dynamic bytes never exceed the budget, (2) a policy only ever evicts
//! blocks it previously asked to replicate and that are still live, and
//! (3) its tracked set equals the live set under interleaved forgets.

use dare_core::{Policy, PolicyCtx, PolicyKind};
use dare_dfs::{BlockId, FileId};
use dare_simcore::check::{run_cases, Gen};
use dare_simcore::DetRng;
use std::collections::{HashMap, HashSet};

const BLK: u64 = 128;

/// Every third block is half-size, as the last block of a file can be.
fn block_bytes(block: u64) -> u64 {
    if block % 3 == 2 {
        BLK / 2
    } else {
        BLK
    }
}

/// One step of a simulated access sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Map task scheduled for (block, local?).
    Task { block: u64, local: bool },
    /// External forget (e.g. failure handling dropped the replica).
    Forget { block: u64 },
}

fn op(g: &mut Gen, blocks: u64) -> Op {
    // 8:1 weighting of task accesses over forgets, as in the original suite.
    if g.usize_in(0..9) < 8 {
        Op::Task {
            block: g.u64_in(0..blocks),
            local: g.bool(0.5),
        }
    } else {
        Op::Forget {
            block: g.u64_in(0..blocks),
        }
    }
}

fn kinds() -> Vec<PolicyKind> {
    vec![
        PolicyKind::GreedyLru,
        PolicyKind::Lfu,
        PolicyKind::ElephantTrap {
            p: 1.0,
            threshold: 1,
        },
        PolicyKind::ElephantTrap {
            p: 0.4,
            threshold: 2,
        },
        PolicyKind::ElephantTrap {
            p: 1.0,
            threshold: 4,
        },
    ]
}

/// Drive a policy through `ops`, mirroring what the MapReduce engine does,
/// and check the shared invariants after every step.
fn run_policy(kind: PolicyKind, ops: &[Op], budget_blocks: u64, seed: u64) {
    let budget = budget_blocks * BLK;
    let mut policy = Policy::new(kind, budget);
    let mut rng = DetRng::new(seed);
    // The blocks (and their bytes) the DFS holds as dynamic replicas here.
    let mut live: HashMap<u64, u64> = HashMap::new();

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Task { block, local } => {
                let decision = policy.on_map_task(PolicyCtx {
                    block: BlockId(block),
                    file: FileId((block / 3) as u32),
                    block_bytes: block_bytes(block),
                    is_local: local || live.contains_key(&block),
                    rng: &mut rng,
                });
                let mut seen = HashSet::new();
                for v in &decision.evict {
                    assert!(
                        live.remove(&v.0).is_some(),
                        "step {step}: {kind:?} evicted {v:?} which was not live"
                    );
                    assert!(seen.insert(*v), "duplicate eviction of {v:?}");
                    assert_ne!(v.0, block, "step {step}: evicted the block being inserted");
                }
                if decision.replicate {
                    assert!(
                        live.insert(block, block_bytes(block)).is_none(),
                        "step {step}: {kind:?} re-replicated live block {block}"
                    );
                }
            }
            Op::Forget { block } => {
                policy.forget(BlockId(block));
                live.remove(&block);
            }
        }
        let live_bytes: u64 = live.values().sum();
        assert!(
            live_bytes <= budget,
            "step {step}: {kind:?} exceeded budget: {live_bytes} live bytes > {budget}"
        );
        let tracked: HashSet<u64> = policy.tracked_blocks().map(|b| b.0).collect();
        let expected: HashSet<u64> = live.keys().copied().collect();
        assert_eq!(
            tracked, expected,
            "step {step}: {kind:?} tracked set != live set"
        );
        assert_eq!(
            policy.used_bytes(),
            live_bytes,
            "step {step}: {kind:?} used bytes"
        );
    }
}

#[test]
fn policies_respect_budget_and_liveness() {
    run_cases(64, 0xC04E_0001, |g| {
        let ops = g.vec(1..400, |g| op(g, 40));
        let budget_blocks = g.u64_in(1..10);
        let seed = g.u64_in(0..1000);
        for kind in kinds() {
            run_policy(kind, &ops, budget_blocks, seed);
        }
    });
}

#[test]
fn same_file_never_evicted_for_its_own_block() {
    run_cases(64, 0xC04E_0002, |g| {
        let accesses = g.vec(1..300, |g| g.u64_in(0..12));
        let seed = g.u64_in(0..1000);
        // All blocks map to files of 3 blocks; whenever an eviction list
        // comes back, no victim may share a file with the inserted block.
        for kind in kinds() {
            let mut policy = Policy::new(kind, 4 * BLK);
            let mut rng = DetRng::new(seed);
            for &block in &accesses {
                let file = FileId((block / 3) as u32);
                let decision = policy.on_map_task(PolicyCtx {
                    block: BlockId(block),
                    file,
                    block_bytes: BLK,
                    is_local: false,
                    rng: &mut rng,
                });
                for v in decision.evict {
                    assert_ne!((v.0 / 3) as u32, file.0, "evicted a same-file victim");
                }
            }
        }
    });
}

#[test]
fn deterministic_across_reruns() {
    run_cases(64, 0xC04E_0003, |g| {
        let ops = g.vec(1..200, |g| op(g, 20));
        let seed = g.u64_in(0..1000);
        // Identical seeds and op sequences must produce identical stats —
        // the reproducibility contract every experiment relies on.
        for kind in kinds() {
            let run = |s| {
                let mut p = Policy::new(kind, 5 * BLK);
                let mut rng = DetRng::new(s);
                for op in &ops {
                    if let Op::Task { block, local } = *op {
                        p.on_map_task(PolicyCtx {
                            block: BlockId(block),
                            file: FileId((block / 3) as u32),
                            block_bytes: BLK,
                            is_local: local,
                            rng: &mut rng,
                        });
                    } else if let Op::Forget { block } = *op {
                        p.forget(BlockId(block));
                    }
                }
                p.stats()
            };
            assert_eq!(run(seed), run(seed));
        }
    });
}
