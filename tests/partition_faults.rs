//! Partition-fault semantics: from the master's side of the cut, a
//! `Partition` is exactly a simultaneous transient crash of every node in
//! a `racks_b` rack — declare-dead after the missed-heartbeat timeout,
//! then a heal that reconciles block reports the way a rejoin does, with
//! no phantom replicas and no duplicate recovery flows. We assert that by
//! running the same workload twice, once under a `Partition` and once
//! under the hand-expanded per-node `Crash` schedule, with runtime
//! invariant checks armed, and requiring the runs to be bit-identical.

use dare_repro::core::PolicyKind;
use dare_repro::mapred::{self, FaultEvent, FaultPlan, SchedulerKind, SimConfig};
use dare_repro::net::{ClusterProfile, RackId};
use dare_repro::workload::swim::{synthesize, SwimParams};
use dare_simcore::DetRng;

#[test]
fn partition_heal_reconciles_exactly_like_rejoin() {
    let seed = 0xC0FFEE;
    let profile = ClusterProfile::ec2_small();

    // Reconstruct the topology the engine will build (same named
    // substream) to learn which nodes sit in each rack.
    let root = DetRng::new(seed);
    let mut topo_rng = root.substream("topology");
    let topo = profile.build_topology(&mut topo_rng);
    // Cut off the most populated rack so the partition takes out several
    // nodes at once; the master's side is any other rack.
    let rack_b = (0..topo.racks())
        .max_by_key(|&r| topo.rack_members(RackId(r)).len())
        .expect("profile has racks");
    let rack_a = (0..topo.racks())
        .find(|&r| r != rack_b && !topo.rack_members(RackId(r)).is_empty())
        .expect("at least two populated racks");
    let cut: Vec<u32> = topo
        .rack_members(RackId(rack_b))
        .iter()
        .map(|n| n.0)
        .collect();
    assert!(cut.len() >= 2, "want a multi-node cut, got {cut:?}");

    // Heal after 45 s: past the 30 s declare-dead timeout (3 s heartbeat
    // × 10 missed), so the cut side is declared dead, its blocks queue
    // for re-replication, and the heal must reconcile a stale namenode.
    let (at_secs, heal_secs) = (20, 45);
    let partition_plan = FaultPlan {
        events: vec![FaultEvent::Partition {
            at_secs,
            racks_a: vec![rack_a],
            racks_b: vec![rack_b],
            heal_secs,
        }],
        ..FaultPlan::default()
    };
    let crash_plan = FaultPlan {
        events: cut
            .iter()
            .map(|&node| FaultEvent::Crash {
                at_secs,
                node,
                down_secs: heal_secs,
            })
            .collect(),
        ..FaultPlan::default()
    };

    // Enough jobs that the run outlives the declare-dead timeout, the
    // heal, and the post-heal re-replication drain.
    let wl = synthesize(
        "partition",
        &SwimParams {
            jobs: 50,
            ..SwimParams::wl1()
        },
        seed,
    );
    let run = |plan: FaultPlan| {
        let mut cfg =
            SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, seed).with_invariant_checks();
        cfg.profile = profile.clone();
        mapred::run(cfg.with_faults(plan), &wl)
    };
    let a = run(partition_plan);
    let b = run(crash_plan);

    // The partitioned side really was declared dead and came back; no
    // block lost any physical copy (disks survive a partition).
    assert_eq!(a.faults.nodes_declared_dead, cut.len() as u64);
    assert_eq!(a.faults.nodes_rejoined, cut.len() as u64);
    assert!(
        a.faults.blocks_re_replicated > 0,
        "cut must trigger recovery"
    );
    assert_eq!(a.faults.blocks_lost, 0);
    assert_eq!(a.faults.blocks_lost_corruption, 0);

    // Bit-identical to the hand-expanded rejoin schedule: same fault
    // counters, same event count, and the same final DFS fingerprint —
    // the heal added no phantom replicas and launched no recovery flow
    // the rejoin path wouldn't.
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.logical_events, b.logical_events);
    assert_eq!(a.dfs_fingerprint, b.dfs_fingerprint);
    assert_eq!(a.run.jobs, b.run.jobs);
    assert_eq!(a.run.failed_jobs, b.run.failed_jobs);
    assert!((a.run.gmtt_secs - b.run.gmtt_secs).abs() < 1e-12);
}
