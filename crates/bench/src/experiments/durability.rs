//! Durability sweep: silent-corruption rate × replication policy.
//!
//! Exercises the data-integrity layer end to end — rate-generated
//! [`FaultEvent::CorruptReplica`](dare_mapred::FaultEvent) events, the
//! read-path checksum, the background block scanner, quarantine, and the
//! repair queue — and contrasts a vanilla cluster with DARE-LRU as the
//! bit-rot rate climbs. Corruption losses are reported on their own
//! ledger (`blocks_lost_corruption`), disjoint from the crash-path
//! `blocks_lost`, so the table separates "data rotted faster than the
//! scrubber+repair pipeline" from "a node died holding the last copy".
//!
//! Runtime invariant checking is enabled for every cell. With `--seeds N`
//! workload synthesis and corruption plans replicate over N derived
//! seeds; CSV value columns become means with appended `_std`/`_ci95`,
//! and the JSON rows carry mean/ci95 pairs. Emits
//! `results/durability.csv` plus machine-readable
//! `results/BENCH_durability.json`. Set `BENCH_QUICK=1` for the CI smoke
//! configuration (fewer jobs, same corruption rates).

use crate::harness::{metric, replicate_experiment, MetricCol, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{FaultPlan, FaultSpec, ScannerConfig, SchedulerKind, SimConfig};
use dare_simcore::json::Json;
use dare_simcore::parallel::parallel_map;
use dare_simcore::SimDuration;
use dare_workload::swim::{synthesize, SwimParams};

/// One corruption-intensity level of the sweep.
#[derive(Clone, Copy)]
struct Level {
    label: &'static str,
    /// Expected corruption events per node-hour of simulated time.
    rate: f64,
}

const LEVELS: [Level; 3] = [
    Level {
        label: "pristine",
        rate: 0.0,
    },
    Level {
        label: "rot-low",
        rate: 20.0,
    },
    Level {
        label: "rot-high",
        rate: 120.0,
    },
];

const METRICS: [MetricCol; 13] = [
    metric("jobs_ok", 0),
    metric("jobs_failed", 0),
    metric("job_locality", 3),
    metric("gmtt_s", 1),
    metric("corrupted", 0),
    metric("cksum_fail", 0),
    metric("scrub_hits", 0),
    metric("quarantined", 0),
    metric("scrub_GB", 1),
    metric("repaired", 0),
    metric("recovery_MB", 1),
    metric("lost_crash", 0),
    metric("lost_corrupt", 0),
];

/// One seed's sweep: fresh workload, fresh corruption plans, all cells.
fn collect(seed: u64, jobs: u32) -> Vec<(Vec<String>, Vec<f64>)> {
    let wl = synthesize(
        "wl1-durability",
        &SwimParams {
            jobs,
            ..SwimParams::wl1()
        },
        seed,
    );
    let span = wl
        .jobs
        .last()
        .map(|j| j.arrival.as_secs_f64())
        .unwrap_or(0.0) as u64;
    let horizon = span.max(30) * 3 / 4;
    let base = SimConfig::ec2(PolicyKind::Vanilla, SchedulerKind::fair_default(), seed);
    let topo = base.topology();
    // The corruption generator samples block ids over the ingested
    // namespace; derive the block count exactly as ingest will.
    let bs = base.dfs.block_size;
    let blocks: u64 = wl.files.iter().map(|f| f.size_bytes.div_ceil(bs)).sum();

    let policies = [PolicyKind::Vanilla, PolicyKind::GreedyLru];
    let mut cells = Vec::new();
    for (li, level) in LEVELS.into_iter().enumerate() {
        let plan = (level.rate > 0.0).then(|| {
            let spec = FaultSpec {
                horizon_secs: horizon,
                kills: 0,
                crashes: 0,
                mean_down_secs: 0,
                rack_outages: 0,
                stragglers: 0,
                straggler_factor: 1.0,
                corruption_rate_per_node_hour: level.rate,
            };
            FaultPlan::generate_valid(&spec, &topo, blocks, seed ^ ((li as u64) << 32))
        });
        for &policy in &policies {
            cells.push((level.label, plan.clone(), policy));
        }
    }

    const MB: f64 = (1u64 << 20) as f64;
    parallel_map(cells, |(label, plan, policy)| {
        let mut cfg = base
            .clone()
            .with_scanner(ScannerConfig {
                period: SimDuration::from_secs(15),
                bytes_per_sec: 32 << 20,
            })
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
                r.faults.replicas_corrupted as f64,
                r.faults.checksum_failures as f64,
                r.faults.scrub_detections as f64,
                r.faults.replicas_quarantined as f64,
                r.faults.scrub_bytes as f64 / (MB * 1024.0),
                r.faults.blocks_re_replicated as f64,
                r.faults.recovery_bytes as f64 / MB,
                r.faults.blocks_lost as f64,
                r.faults.blocks_lost_corruption as f64,
            ],
        )
    })
}

/// Corruption rate × policy sweep on the EC2 profile.
pub fn run(seed: u64, seeds: u32) -> usize {
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let jobs: u32 = if quick { 30 } else { 100 };

    let st = replicate_experiment(
        "Durability: silent-corruption rate x policy (ec2, fair, background scanner; read-path checksums, quarantine + repair)",
        &["level", "policy"],
        &METRICS,
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |s, _| collect(s, jobs),
    );
    st.emit("durability");
    let config = [
        ("profile", Json::from("ec2")),
        ("scheduler", "fair".into()),
        ("scanner", true.into()),
        ("jobs", jobs.into()),
    ];
    usize::from(!st.write_bench("durability", config, seed, quick))
}
