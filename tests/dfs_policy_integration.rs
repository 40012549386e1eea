//! Integration of the DARE policies with the DFS substrate, without the
//! full MapReduce engine: a miniature driver that mimics the engine's
//! contract (policy decides → DFS applies) and checks the two layers stay
//! consistent under long random access streams.

use dare_repro::core::{Policy, PolicyCtx, PolicyKind};
use dare_repro::dfs::{DefaultPlacement, Dfs, DfsConfig};
use dare_repro::net::{NodeId, Topology, MB};
use dare_repro::simcore::{DetRng, SimDuration, SimTime};

const NODES: u32 = 10;

fn build_dfs(files: u32, blocks_per_file: u64, rng: &mut DetRng) -> Dfs {
    let mut dfs = Dfs::new(DfsConfig::default(), Topology::single_rack(NODES));
    for i in 0..files {
        dfs.create_file(
            SimTime::ZERO,
            format!("f{i}"),
            blocks_per_file * 128 * MB,
            None,
            &DefaultPlacement,
            rng,
            false,
        );
    }
    dfs
}

/// Drive one policy instance on one node against the DFS exactly like the
/// engine does, returning (inserts, rejected_inserts).
fn drive(policy_kind: PolicyKind, accesses: usize, seed: u64) -> (u64, u64) {
    let mut rng = DetRng::new(seed);
    let mut dfs = build_dfs(12, 4, &mut rng);
    let node = NodeId(0);
    let budget = 6 * 128 * MB;
    let mut policy = Policy::new(policy_kind, budget);
    let mut coin = DetRng::new(seed ^ 0xD00D);
    let mut now = SimTime::ZERO;
    let (mut inserts, mut rejected) = (0u64, 0u64);

    let all_blocks: Vec<_> = (0..dfs.namenode().num_blocks())
        .map(|i| dare_repro::dfs::BlockId(i as u64))
        .collect();

    for step in 0..accesses {
        now += SimDuration::from_secs(1);
        dfs.process_reports(now);
        let block = all_blocks[coin.index(all_blocks.len())];
        let meta = dfs.namenode().block(block);
        let is_local = dfs.is_physically_present(node, block);
        let decision = policy.on_map_task(PolicyCtx {
            block,
            file: meta.file,
            block_bytes: meta.size_bytes,
            is_local,
            rng: &mut rng,
        });
        for v in decision.evict {
            assert!(
                dfs.evict_dynamic(node, v).is_some(),
                "step {step}: policy evicted {v} the DFS does not hold"
            );
        }
        if decision.replicate {
            if dfs.insert_dynamic(now, node, block) {
                inserts += 1;
            } else {
                policy.forget(block);
                rejected += 1;
            }
        }
        // Invariant: the node's dynamic bytes never exceed the budget.
        assert!(
            dfs.datanode(node).dynamic_bytes() <= budget,
            "step {step}: budget exceeded"
        );
    }
    (inserts, rejected)
}

#[test]
fn greedy_lru_stays_consistent_with_dfs() {
    let (inserts, rejected) = drive(PolicyKind::GreedyLru, 3000, 1);
    assert!(inserts > 50, "greedy replicates a lot: {inserts}");
    assert_eq!(rejected, 0, "policy tracking should prevent DFS rejections");
}

#[test]
fn elephant_trap_stays_consistent_with_dfs() {
    let (inserts, rejected) = drive(
        PolicyKind::ElephantTrap {
            p: 0.4,
            threshold: 1,
        },
        3000,
        2,
    );
    assert!(inserts > 20);
    assert_eq!(rejected, 0);
}

#[test]
fn lfu_stays_consistent_with_dfs() {
    let (inserts, rejected) = drive(PolicyKind::Lfu, 3000, 3);
    assert!(inserts > 50);
    assert_eq!(rejected, 0);
}

#[test]
fn unreported_replica_is_readable_but_not_schedulable() {
    let mut rng = DetRng::new(5);
    let mut dfs = build_dfs(2, 2, &mut rng);
    let b = dare_repro::dfs::BlockId(0);
    let outsider = (0..NODES)
        .map(NodeId)
        .find(|&n| !dfs.is_physically_present(n, b))
        .expect("cluster larger than replication factor");
    let t = SimTime::from_secs(100);
    assert!(dfs.insert_dynamic(t, outsider, b));
    assert!(dfs.is_physically_present(outsider, b), "locally readable");
    assert!(
        !dfs.visible_locations(b).contains(&outsider),
        "not yet schedulable"
    );
    dfs.process_reports(t + dfs.config().report_delay);
    assert!(dfs.visible_locations(b).contains(&outsider));
}

#[test]
fn failure_recovery_keeps_policy_and_dfs_in_sync() {
    let mut rng = DetRng::new(7);
    let mut dfs = build_dfs(6, 3, &mut rng);
    let node = NodeId(1);
    let mut policy = Policy::new(PolicyKind::GreedyLru, 10 * 128 * MB);

    // Replicate a few blocks onto node 1.
    let mut tracked = Vec::new();
    for i in 0..6u64 {
        let b = dare_repro::dfs::BlockId(i);
        if dfs.is_physically_present(node, b) {
            continue;
        }
        let meta = dfs.namenode().block(b);
        let d = policy.on_map_task(PolicyCtx {
            block: b,
            file: meta.file,
            block_bytes: meta.size_bytes,
            is_local: false,
            rng: &mut rng,
        });
        if d.replicate {
            assert!(d.evict.is_empty());
            assert!(dfs.insert_dynamic(SimTime::ZERO, node, b));
            tracked.push(b);
        }
    }
    assert!(!tracked.is_empty());

    // The node dies as in the engine: the disk goes with it, then the
    // name node drops it. The engine must clear the policy state via forget.
    dfs.wipe_node(node);
    dfs.mark_node_dead(node);
    for &b in &tracked {
        assert!(!dfs.visible_locations(b).contains(&node));
        policy.forget(b);
        assert!(!dfs.is_physically_present(node, b));
    }
    // The policy can rebuild from scratch afterwards.
    let b = tracked[0];
    let meta = dfs.namenode().block(b);
    let d = policy.on_map_task(PolicyCtx {
        block: b,
        file: meta.file,
        block_bytes: meta.size_bytes,
        is_local: false,
        rng: &mut rng,
    });
    assert!(d.replicate);
}
