//! Property-based end-to-end invariants: whatever the workload shape,
//! seed, policy, and scheduler, a finished simulation satisfies the
//! structural contracts every experiment relies on.

use dare_repro::core::PolicyKind;
use dare_repro::mapred::{self, SchedulerKind, SimConfig};
use dare_repro::workload::swim::{synthesize, SwimParams};
use dare_simcore::check::{env_cases, run_cases, Gen};
use dare_simcore::SimDuration;

fn policy(g: &mut Gen) -> PolicyKind {
    match g.usize_in(0..4) {
        0 => PolicyKind::Vanilla,
        1 => PolicyKind::GreedyLru,
        2 => PolicyKind::Lfu,
        _ => PolicyKind::ElephantTrap {
            p: g.f64_in(0.05..1.0),
            threshold: g.u64_in(1..4),
        },
    }
}

fn sched(g: &mut Gen) -> SchedulerKind {
    if g.bool(0.5) {
        SchedulerKind::Fifo
    } else {
        SchedulerKind::fair_default()
    }
}

// End-to-end runs are comparatively expensive; keep the per-commit case
// count modest — the space is smooth and the invariants are structural.
// The nightly CI job raises the count via DARE_PROP_CASES.
#[test]
fn finished_runs_satisfy_structural_invariants() {
    run_cases(env_cases(24), 0xE2E_0001, |g| {
        let seed = g.u64_in(0..10_000);
        let jobs = g.u32_in(20..80);
        let policy = policy(g);
        let sched = sched(g);
        let budget = g.f64_in(0.0..0.6);
        let focal_prob = g.f64_in(0.0..0.95);

        let wl = synthesize(
            "prop",
            &SwimParams {
                jobs,
                focal_prob,
                ..SwimParams::wl1()
            },
            seed,
        );
        let mut cfg = SimConfig::cct(policy, sched, seed);
        cfg.budget_frac = budget;
        let r = mapred::run(cfg, &wl);

        // Every job completed exactly once, in id order.
        assert_eq!(r.run.jobs, jobs as usize);
        assert_eq!(r.outcomes.len(), jobs as usize);
        for (i, o) in r.outcomes.iter().enumerate() {
            assert_eq!(o.id as usize, i);
            // Completion after arrival; locality classes partition maps.
            assert!(o.completed >= o.arrival);
            assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
        }

        // Aggregate metrics well-formed.
        assert!((0.0..=1.0).contains(&r.run.locality));
        assert!((0.0..=1.0).contains(&r.run.job_locality));
        assert!(r.run.rack_or_better >= r.run.locality - 1e-12);
        assert!(r.run.gmtt_secs > 0.0);
        assert!(
            r.run.mean_slowdown > 0.9,
            "slowdown {}",
            r.run.mean_slowdown
        );

        // Replication accounting.
        if matches!(policy, PolicyKind::Vanilla) || budget == 0.0 {
            assert_eq!(r.replicas_created, 0);
            assert_eq!(r.final_dynamic_bytes, 0);
        }
        assert!(r.evictions <= r.replicas_created);
        // Cluster-wide dynamic bytes bounded by the aggregate budget.
        let per_node_budget = (wl.dataset_bytes() as f64 * 3.0 / 19.0 * budget) as u64;
        assert!(
            r.final_dynamic_bytes <= per_node_budget.saturating_mul(19).saturating_add(1),
            "dynamic bytes {} exceed aggregate budget",
            r.final_dynamic_bytes
        );

        // Locality classes only improve with replication: rack_or_better
        // can't exceed 1.
        assert!(r.run.rack_or_better <= 1.0 + 1e-12);
    });
}

// Same contract under generated fault plans — now including silent
// corruption and an optional background scanner: every job reaches a
// terminal state (completed or failed), the fault counters reconcile with
// the outcomes, the corruption ledgers are internally consistent, and
// with fewer kills than the replication factor (and no corruption) no
// block is ever lost outright. Runtime invariant checking is on, so slot
// conservation and recovery-queue consistency are asserted at every event.
#[test]
fn faulty_runs_reach_terminal_states() {
    use dare_repro::metrics::JobStatus;

    run_cases(env_cases(12), 0xE2E_0002, |g| {
        let seed = g.u64_in(0..10_000);
        let jobs = g.u32_in(20..50);
        let policy = policy(g);
        let sched = sched(g);
        let spec = mapred::FaultSpec {
            horizon_secs: 240,
            kills: g.u32_in(0..3),
            crashes: g.u32_in(0..4),
            mean_down_secs: g.u64_in(20..120),
            rack_outages: 0,
            stragglers: g.u32_in(0..2),
            straggler_factor: g.f64_in(1.5..6.0),
            corruption_rate_per_node_hour: if g.bool(0.6) {
                g.f64_in(10.0..120.0)
            } else {
                0.0
            },
        };
        let kills = spec.kills;

        let wl = synthesize(
            "prop-faults",
            &SwimParams {
                jobs,
                ..SwimParams::wl1()
            },
            seed,
        );
        let mut cfg = SimConfig::cct(policy, sched, seed).with_invariant_checks();
        let blocks: u64 = wl
            .files
            .iter()
            .map(|f| f.size_bytes.div_ceil(cfg.dfs.block_size))
            .sum();
        let plan = mapred::FaultPlan::generate_valid(
            &spec,
            &cfg.topology(),
            blocks,
            g.u64_in(0..1_000_000),
        );
        let corruptions = plan
            .events
            .iter()
            .filter(|e| matches!(e, mapred::FaultEvent::CorruptReplica { .. }))
            .count() as u64;
        cfg = cfg.with_faults(plan);
        if g.bool(0.5) {
            cfg = cfg.with_scanner(mapred::ScannerConfig {
                period: SimDuration::from_secs(g.u64_in(15..120)),
                bytes_per_sec: g.u64_in(4..64) << 20,
            });
        }
        cfg.budget_frac = g.f64_in(0.0..0.5);
        let r = mapred::run(cfg, &wl);

        // Every job terminal, exactly once, in id order.
        assert_eq!(r.run.jobs + r.run.failed_jobs, jobs as usize);
        assert_eq!(r.outcomes.len(), jobs as usize);
        let mut failed_seen = 0u64;
        for (i, o) in r.outcomes.iter().enumerate() {
            assert_eq!(o.id as usize, i);
            assert!(o.completed >= o.arrival);
            if o.status == JobStatus::Failed {
                failed_seen += 1;
            } else {
                // Completed jobs keep the locality partition.
                assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
            }
        }
        assert_eq!(failed_seen, r.faults.jobs_failed);
        assert_eq!(r.run.failed_jobs as u64, r.faults.jobs_failed);
        assert!(r.faults.tasks_failed >= r.faults.jobs_failed);

        // Fewer permanent kills than the replication factor (3) means
        // some physical copy of every block survives — unless corruption
        // already removed clean copies out from under the crash schedule.
        if kills < 3 && corruptions == 0 {
            assert_eq!(r.faults.blocks_lost, 0, "unexpected data loss");
        }

        // Corruption-ledger consistency. A replica is only quarantined on
        // a detection (read-path checksum failure or scrub hit), and only
        // actually-corrupted replicas ever fail verification.
        assert!(
            r.faults.replicas_quarantined <= r.faults.checksum_failures + r.faults.scrub_detections,
            "quarantine without a detection"
        );
        assert!(
            r.faults.replicas_quarantined <= r.faults.replicas_corrupted,
            "quarantined a clean replica"
        );
        if corruptions == 0 {
            assert_eq!(r.faults.replicas_corrupted, 0);
            assert_eq!(r.faults.checksum_failures, 0);
            assert_eq!(r.faults.scrub_detections, 0);
            assert_eq!(r.faults.replicas_quarantined, 0);
            assert_eq!(r.faults.blocks_lost_corruption, 0);
        }
    });
}
