//! Engine-level differential oracle: a full simulation driven by the
//! indexed scheduler must be **bit-identical** to one driven by the
//! naive-scan reference scheduler (`Scheduler::naive`, the scans in
//! `dare_sched::oracle`), passed in through `Engine::with_scheduler`.
//!
//! The sched crate's differential test already replays randomized offer
//! streams against both queue implementations; this test closes the loop
//! end-to-end — replica churn from the DARE policy, dynamic-replica
//! promotion batches, speculative backups, node failures with index
//! rebuilds — and demands byte-equal job outcomes and run metrics.

use dare_core::PolicyKind;
use dare_mapred::{Engine, SchedulerKind, SimConfig, SimResult};
use dare_sched::Scheduler;
use dare_workload::swim::{synthesize, SwimParams};
use dare_workload::Workload;

fn swim(seed: u64, jobs: u32) -> Workload {
    let params = SwimParams {
        jobs,
        files: 24,
        ..SwimParams::wl1()
    };
    synthesize("swim-diff", &params, seed)
}

fn assert_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{label}: job count");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.id, y.id, "{label}: outcome order");
        assert_eq!(x.status, y.status, "{label}: job {} status", x.id);
        assert_eq!(x.arrival, y.arrival, "{label}: job {} arrival", x.id);
        assert_eq!(x.completed, y.completed, "{label}: job {} completion", x.id);
        assert_eq!(x.maps, y.maps, "{label}: job {} maps", x.id);
        assert_eq!(
            (x.node_local, x.rack_local, x.remote),
            (y.node_local, y.rack_local, y.remote),
            "{label}: job {} locality split",
            x.id
        );
        assert_eq!(x.dedicated, y.dedicated, "{label}: job {} dedicated", x.id);
    }
    // Aggregate metrics are pure functions of the outcomes, but compare
    // the headline numbers anyway — exact float equality, no tolerance.
    assert!(a.run.gmtt_secs == b.run.gmtt_secs, "{label}: gmtt");
    assert!(a.run.locality == b.run.locality, "{label}: locality");
    assert!(a.run.makespan_secs == b.run.makespan_secs, "{label}: makespan");
    assert_eq!(a.replicas_created, b.replicas_created, "{label}: replicas");
    assert_eq!(a.evictions, b.evictions, "{label}: evictions");
    assert_eq!(
        a.remote_bytes_fetched, b.remote_bytes_fetched,
        "{label}: remote bytes"
    );
    assert_eq!(
        a.speculative_launches, b.speculative_launches,
        "{label}: backups"
    );
    assert_eq!(a.speculative_wins, b.speculative_wins, "{label}: spec wins");
    assert_eq!(
        a.final_dynamic_bytes, b.final_dynamic_bytes,
        "{label}: dynamic bytes"
    );
    assert_eq!(a.faults, b.faults, "{label}: fault counters");
    assert_eq!(a.sched_offers, b.sched_offers, "{label}: slot offers");
}

fn run_pair(cfg: SimConfig, wl: &Workload, label: &str) {
    let oracle = Scheduler::naive(cfg.scheduler);
    let indexed = dare_mapred::run(cfg.clone(), wl);
    let naive = Engine::with_scheduler(cfg, wl, oracle).run();
    assert_identical(&indexed, &naive, label);
}

#[test]
fn fifo_engine_matches_naive_scan() {
    for seed in [1u64, 2, 3] {
        let wl = swim(100 + seed, 60);
        let cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, seed);
        run_pair(cfg, &wl, &format!("fifo/greedy seed {seed}"));
    }
}

#[test]
fn fair_engine_matches_naive_scan() {
    for seed in [4u64, 5, 6] {
        let wl = swim(200 + seed, 60);
        let cfg = SimConfig::cct(
            PolicyKind::elephant_default(),
            SchedulerKind::fair_default(),
            seed,
        );
        run_pair(cfg, &wl, &format!("fair/elephant seed {seed}"));
    }
}

#[test]
fn capacity_engine_matches_naive_scan() {
    let wl = swim(300, 60);
    let cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Capacity(3), 7);
    run_pair(cfg, &wl, "capacity/greedy");
}

#[test]
fn churn_heavy_engine_matches_naive_scan() {
    // Failures force full index rebuilds, speculation exercises the
    // O(jobs) straggler fast path, and the EC2 profile's heterogeneous
    // disks produce genuine stragglers.
    let wl = swim(400, 80);
    let cfg = SimConfig::ec2(
        PolicyKind::elephant_default(),
        SchedulerKind::fair_default(),
        11,
    )
    .with_speculation(Default::default())
    .with_failures(vec![(20, 3), (45, 17)]);
    run_pair(cfg, &wl, "churn ec2 fair");
}

#[test]
fn fault_plan_engine_matches_naive_scan() {
    // The full fault machinery — transient crash/rejoin cycles, a rack
    // outage, a straggler episode, delayed detection, retry backoff, and
    // bandwidth-consuming re-replication — must leave both scheduler
    // implementations in lockstep, down to the fault counters.
    use dare_mapred::{FaultPlan, FaultSpec};
    let wl = swim(500, 60);
    let spec = FaultSpec {
        horizon_secs: 240,
        kills: 1,
        crashes: 3,
        mean_down_secs: 60,
        rack_outages: 1,
        stragglers: 1,
        straggler_factor: 4.0,
        corruption_rate_per_node_hour: 0.0,
    };
    let cfg = SimConfig::ec2(
        PolicyKind::GreedyLru,
        SchedulerKind::fair_default(),
        13,
    );
    let plan = FaultPlan::generate_valid(&spec, &cfg.topology(), 0, 0xD1FF);
    let cfg = cfg
        .with_speculation(Default::default())
        .with_faults(plan)
        .with_invariant_checks();
    run_pair(cfg, &wl, "fault plan ec2 fair");
}
