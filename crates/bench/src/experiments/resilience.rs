//! Resilience sweep: failure intensity × replication policy.
//!
//! Exercises the full fault-injection subsystem on the EC2 profile —
//! permanent kills, transient crash/rejoin cycles, rack outages, and
//! straggler episodes generated from a [`FaultSpec`] — and measures how
//! the DARE policies hold up against a vanilla baseline when nodes are
//! actually dying: job turnaround and locality, retry/re-execution churn,
//! and the namenode's recovery work (blocks re-replicated through the
//! contended network, data loss if any).
//!
//! Runtime invariant checking is enabled for every cell, so the sweep
//! doubles as a stress test of the engine's failure paths. With
//! `--seeds N` the whole sweep — workload synthesis, fault plans, and
//! runs — replicates over N derived seeds; CSV value columns become
//! means with appended `_std`/`_ci95`, and the JSON rows carry
//! mean/ci95 pairs. Emits `results/resilience.csv` plus
//! machine-readable `results/BENCH_resilience.json`. Set `BENCH_QUICK=1`
//! for the CI smoke configuration (fewer jobs, same fault shapes).

use crate::harness::{metric, replicate_experiment, MetricCol, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{FaultPlan, FaultSpec, SchedulerKind, SimConfig};
use dare_simcore::parallel::parallel_map;
use dare_workload::swim::{synthesize, SwimParams};

/// One failure-intensity level of the sweep.
#[derive(Clone, Copy)]
struct Level {
    label: &'static str,
    spec: Option<FaultSpec>,
}

fn levels(horizon_secs: u64) -> Vec<Level> {
    vec![
        Level {
            label: "calm",
            spec: None,
        },
        Level {
            label: "light",
            spec: Some(FaultSpec {
                horizon_secs,
                kills: 1,
                crashes: 4,
                mean_down_secs: 60,
                rack_outages: 1,
                stragglers: 2,
                straggler_factor: 3.0,
                corruption_rate_per_node_hour: 0.0,
            }),
        },
        Level {
            label: "heavy",
            spec: Some(FaultSpec {
                horizon_secs,
                kills: 4,
                crashes: 12,
                mean_down_secs: 90,
                rack_outages: 3,
                stragglers: 5,
                straggler_factor: 5.0,
                corruption_rate_per_node_hour: 0.0,
            }),
        },
    ]
}

const METRICS: [MetricCol; 13] = [
    metric("jobs_ok", 0),
    metric("jobs_failed", 0),
    metric("job_locality", 3),
    metric("gmtt_s", 1),
    metric("p95_slowdown", 2),
    metric("reexecuted", 0),
    metric("tasks_retried", 0),
    metric("tasks_failed", 0),
    metric("declared_dead", 0),
    metric("rejoined", 0),
    metric("re_replicated", 0),
    metric("recovery_MB", 1),
    metric("blocks_lost", 0),
];

/// One seed's sweep: fresh workload, fresh fault plans, all cells.
fn collect(seed: u64, jobs: u32) -> Vec<(Vec<String>, Vec<f64>)> {
    let wl = synthesize(
        "wl1-resilience",
        &SwimParams {
            jobs,
            ..SwimParams::wl1()
        },
        seed,
    );
    // Draw fault times from the window the cluster is actually busy, so
    // the sweep stresses the run instead of scheduling faults after the
    // last job has finished.
    let span = wl
        .jobs
        .last()
        .map(|j| j.arrival.as_secs_f64())
        .unwrap_or(0.0) as u64;
    let horizon = span.max(30) * 3 / 4;
    let base = SimConfig::ec2(PolicyKind::Vanilla, SchedulerKind::fair_default(), seed);
    // Fault plans are validated against the topology the engine will
    // build.
    let topo = base.topology();

    let policies = [
        PolicyKind::Vanilla,
        PolicyKind::GreedyLru,
        PolicyKind::elephant_default(),
    ];
    let mut cells = Vec::new();
    for (li, level) in levels(horizon).into_iter().enumerate() {
        let plan = level
            .spec
            .map(|s| FaultPlan::generate_valid(&s, &topo, 0, seed ^ ((li as u64) << 32)));
        for &policy in &policies {
            cells.push((level.label, plan.clone(), policy));
        }
    }

    const MB: f64 = (1u64 << 20) as f64;
    parallel_map(cells, |(label, plan, policy)| {
        let mut cfg = base
            .clone()
            .with_speculation(Default::default())
            .with_invariant_checks();
        cfg.policy = policy;
        if let Some(p) = plan {
            cfg = cfg.with_faults(p);
        }
        let r = dare_mapred::run(cfg, &wl);
        (
            vec![label.to_string(), policy.label()],
            vec![
                r.run.jobs as f64,
                r.run.failed_jobs as f64,
                r.run.job_locality,
                r.run.gmtt_secs,
                r.run.p95_slowdown,
                r.faults.tasks_retried as f64,
                r.faults.tasks_retried as f64,
                r.faults.tasks_failed as f64,
                r.faults.nodes_declared_dead as f64,
                r.faults.nodes_rejoined as f64,
                r.faults.blocks_re_replicated as f64,
                r.faults.recovery_bytes as f64 / MB,
                r.faults.blocks_lost as f64,
            ],
        )
    })
}

/// Failure intensity × policy sweep on the EC2 profile.
pub fn run(seed: u64, seeds: u32) {
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let jobs: u32 = if quick { 30 } else { 100 };

    let st = replicate_experiment(
        "Resilience: failure intensity x policy (ec2, fair, speculation; heartbeat-timeout detection, networked re-replication)",
        &["level", "policy"],
        &METRICS,
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |s| collect(s, jobs),
    );
    st.emit("resilience");
    st.write_json("BENCH_resilience", "speculation", seed, jobs, quick);
}
