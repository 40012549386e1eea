//! The experiment farm: the paper's policy × scheduler matrix crossed
//! with cluster profiles and fault levels, through the real engine.
//!
//! Profile and fault level are *environment* axes: each (profile, fault
//! level, replicate) draws its own workload and fault plan from
//! [`env_seed`]. Scheduler and policy are *treatment* axes: one
//! [`run_matrix_threads`] call runs FIFO and Fair × vanilla, DARE-LRU and
//! ElephantTrap on the same environment, so the systems compared in one
//! replicate share their draws (common random numbers). Every run has
//! speculation and per-event invariant checks on.
//!
//! With `--seeds N` the rows become means with appended `_std`/`_ci95`
//! columns, every metric at 6 decimals. Emits `results/farm.csv` and
//! `results/BENCH_farm.json`. Set `BENCH_QUICK=1` for the smoke shape:
//! the CCT profile only, calm and heavy faults, 6-job workloads.

use crate::harness::{
    cell_seed, metric, replicate_experiment, run_matrix_threads, MetricCol, RowOrder, SeedTable,
};
use dare_core::PolicyKind;
use dare_mapred::{FaultPlan, FaultSpec, SchedulerKind, SimConfig};
use dare_simcore::json::Json;
use dare_workload::swim::{synthesize, SwimParams};

/// Label columns: the environment axes, then the treatment axes.
pub const LABELS: [&str; 4] = ["profile", "faults", "scheduler", "policy"];

/// Metric columns, in row order.
pub const METRICS: [MetricCol; 6] = [
    metric("job_locality", 6),
    metric("task_locality", 6),
    metric("gmtt_s", 6),
    metric("p95_slowdown", 6),
    metric("jobs_failed", 6),
    metric("re_replicated", 6),
];

/// Jobs per synthesized workload.
fn jobs(quick: bool) -> u32 {
    if quick {
        6
    } else {
        20
    }
}

fn fault_spec(level: &str, horizon_secs: u64) -> Option<FaultSpec> {
    match level {
        "calm" => None,
        "light" => Some(FaultSpec {
            horizon_secs,
            kills: 1,
            crashes: 3,
            mean_down_secs: 60,
            rack_outages: 0,
            stragglers: 2,
            straggler_factor: 3.0,
            corruption_rate_per_node_hour: 0.0,
        }),
        "heavy" => Some(FaultSpec {
            horizon_secs,
            kills: 3,
            crashes: 8,
            mean_down_secs: 90,
            rack_outages: 2,
            stragglers: 4,
            straggler_factor: 5.0,
            corruption_rate_per_node_hour: 0.0,
        }),
        other => panic!("unknown fault level {other:?}"),
    }
}

/// Seed of one environment: [`cell_seed`] over the seeded axes, so even
/// replicate 0 leaves `base_seed` and every environment draws its own
/// workload and plan.
pub fn env_seed(base_seed: u64, profile: &str, faults: &str, replicate: u32) -> u64 {
    cell_seed(
        base_seed,
        &format!("faults={faults};profile={profile}"),
        replicate,
    )
}

/// One replicate's rows: every environment, each through one matrix run.
fn collect(
    base_seed: u64,
    replicate: u32,
    quick: bool,
    threads: usize,
) -> Vec<(Vec<String>, Vec<f64>)> {
    let (profiles, levels): (&[&str], &[&str]) = if quick {
        (&["cct"], &["calm", "heavy"])
    } else {
        (&["cct", "ec2"], &["calm", "light", "heavy"])
    };
    let schedulers = [SchedulerKind::Fifo, SchedulerKind::fair_default()];
    let mut rows = Vec::new();
    for &profile in profiles {
        for &level in levels {
            let seed = env_seed(base_seed, profile, level, replicate);
            let params = SwimParams {
                jobs: jobs(quick),
                ..SwimParams::wl1()
            };
            let wl = synthesize("wl1-farm", &params, seed);
            let span = wl
                .jobs
                .last()
                .map(|j| j.arrival.as_secs_f64())
                .unwrap_or(0.0) as u64;
            let horizon = span.max(30) * 3 / 4;

            let preset = match profile {
                "cct" => SimConfig::cct,
                _ => SimConfig::ec2,
            };
            let mut base = preset(PolicyKind::Vanilla, SchedulerKind::Fifo, seed)
                .with_speculation(Default::default())
                .with_invariant_checks();
            if let Some(mut fs) = fault_spec(level, horizon) {
                let topo = base.topology();
                // On a single-rack cluster a rack outage takes every node
                // down, so it overlaps any other crash or kill before it
                // ends and no valid plan has both: the cluster-wide outage
                // is left out.
                if topo.racks() == 1 {
                    fs.rack_outages = 0;
                }
                // Distinct plan stream per level, as the resilience sweep
                // does with `seed ^ (level << 32)`.
                let tag = if level == "light" { 1u64 } else { 2u64 };
                let plan = FaultPlan::generate_valid(&fs, &topo, 0, seed ^ (tag << 32));
                base = base.with_faults(plan);
            }

            for c in run_matrix_threads(&base, &wl, &schedulers, threads) {
                let r = &c.result;
                rows.push((
                    vec![
                        profile.to_string(),
                        level.to_string(),
                        c.scheduler.label().to_string(),
                        c.policy.label(),
                    ],
                    vec![
                        r.run.job_locality,
                        r.run.locality,
                        r.run.gmtt_secs,
                        r.run.p95_slowdown,
                        r.run.failed_jobs as f64,
                        r.faults.blocks_re_replicated as f64,
                    ],
                ));
            }
        }
    }
    rows
}

/// The farm over `seeds` replicates, each matrix on up to `threads`
/// workers. The table does not depend on `threads`.
pub fn table(seed: u64, seeds: u32, quick: bool, threads: usize) -> SeedTable {
    replicate_experiment(
        "farm: profile x faults x scheduler x policy (speculation, invariant checks)",
        &LABELS,
        &METRICS,
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |_, replicate| collect(seed, replicate, quick, threads),
    )
}

/// Run the farm on every core and write its CSV and bench report.
pub fn run(seed: u64, seeds: u32) -> usize {
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let st = table(seed, seeds, quick, threads);
    st.emit("farm");
    let config = [
        ("speculation", Json::from(true)),
        ("jobs", jobs(quick).into()),
    ];
    usize::from(!st.write_bench("farm", config, seed, quick))
}
