//! The factorial experiment farm — the `dare-farm` harness driven by the
//! real engine.
//!
//! Declares one [`SweepSpec`]: schedulers × replication policies ×
//! cluster profiles × fault levels × N replicate seeds, where scheduler
//! and policy are *treatment* axes (they share seeds within a replicate,
//! giving paired comparisons on common random numbers) and profile/fault
//! level are *seeded* environment axes (they enter the per-cell seed
//! hash). Every cell is a pure function of its coordinates and derived
//! seed: workload synthesis, fault-plan generation, and the engine run
//! all draw from `cell.seed`.
//!
//! The sweep runs twice — single-threaded and on all cores — and the
//! merged outputs are asserted byte-identical before anything is
//! written, so the files below are certified thread-count independent on
//! every invocation:
//!
//! - `results/farm_cells.csv` — one row per (cell, replicate), sorted by
//!   coordinate key then replicate;
//! - `results/farm_agg.csv` — one row per coordinate with
//!   `<metric>_mean,<metric>_std,<metric>_ci95` columns;
//! - `results/farm_merged.json` — the same aggregate, machine readable.
//!
//! Wall-clock goes to `results/BENCH_farm.json` only: cells/sec at each
//! thread count and the scaling efficiency `(t1/tN)/N`. Set
//! `BENCH_QUICK=1` for the CI smoke matrix (2×2×2 cells, fewer jobs).

use crate::harness::csv_path;
use dare_core::PolicyKind;
use dare_farm::{aggregate_csv, merged_json, per_cell_csv, run_sweep, Cell, RunOptions, SweepSpec};
use dare_mapred::{FaultPlan, FaultSpec, SchedulerKind, SimConfig};
use dare_workload::swim::{synthesize, SwimParams};

/// Metric columns every cell reports, in order.
pub const METRICS: [&str; 6] = [
    "job_locality",
    "task_locality",
    "gmtt_s",
    "p95_slowdown",
    "jobs_failed",
    "re_replicated",
];

/// The farm's sweep matrix. `quick` is the CI smoke shape: two levels
/// per axis on the CCT profile only. The full matrix is
/// 2 schedulers × 3 policies × 2 profiles × 3 fault levels.
pub fn spec(base_seed: u64, seeds: u32, quick: bool) -> SweepSpec {
    let s = SweepSpec::new("dare-farm", base_seed);
    let s = if quick {
        s.axis("scheduler", &["fifo", "fair"])
            .axis("policy", &["vanilla", "lru"])
            .seeded_axis("profile", &["cct"])
            .seeded_axis("faults", &["calm", "heavy"])
    } else {
        s.axis("scheduler", &["fifo", "fair"])
            .axis("policy", &["vanilla", "lru", "et"])
            .seeded_axis("profile", &["cct", "ec2"])
            .seeded_axis("faults", &["calm", "light", "heavy"])
    };
    s.seeds(seeds)
}

/// Jobs per synthesized workload for one cell.
pub fn jobs_per_cell(quick: bool) -> u32 {
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

/// Run one cell of the matrix through the real engine. Pure function of
/// the cell (coordinates + derived seed) and `quick` — this is what
/// makes the merged outputs byte-stable across thread counts, and the
/// determinism test in `tests/farm_determinism.rs` holds this module to
/// it.
pub fn run_cell(cell: &Cell, quick: bool) -> Vec<f64> {
    let seed = cell.seed;
    let jobs = jobs_per_cell(quick);
    let wl = synthesize("wl1-farm", &SwimParams { jobs, ..SwimParams::wl1() }, seed);
    let span = wl.jobs.last().map(|j| j.arrival.as_secs_f64()).unwrap_or(0.0) as u64;
    let horizon = span.max(30) * 3 / 4;

    let sched = match cell.coord("scheduler").expect("scheduler axis") {
        "fifo" => SchedulerKind::Fifo,
        "fair" => SchedulerKind::fair_default(),
        other => panic!("unknown scheduler {other:?}"),
    };
    let policy = match cell.coord("policy").expect("policy axis") {
        "vanilla" => PolicyKind::Vanilla,
        "lru" => PolicyKind::GreedyLru,
        "et" => PolicyKind::elephant_default(),
        other => panic!("unknown policy {other:?}"),
    };
    let mut cfg = match cell.coord("profile").expect("profile axis") {
        "cct" => SimConfig::cct(policy, sched, seed),
        "ec2" => SimConfig::ec2(policy, sched, seed),
        other => panic!("unknown profile {other:?}"),
    };
    cfg = cfg.with_speculation(Default::default()).with_invariant_checks();

    let level = cell.coord("faults").expect("faults axis");
    if let Some(mut fs) = fault_spec(level, horizon) {
        let topo = cfg.topology();
        // On a single-rack cluster a rack outage takes every node down,
        // so it overlaps any other crash or kill before it ends and no
        // valid plan has both: the cluster-wide outage is left out.
        if topo.racks() == 1 {
            fs.rack_outages = 0;
        }
        // Distinct plan stream per level tag, mirroring the resilience
        // sweep's `seed ^ (level << 32)` idiom.
        let tag = if level == "light" { 1u64 } else { 2u64 };
        let plan = FaultPlan::generate_valid(&fs, &topo, 0, seed ^ (tag << 32));
        cfg = cfg.with_faults(plan);
    }

    let r = dare_mapred::run(cfg, &wl);
    vec![
        r.run.job_locality,
        r.run.locality,
        r.run.gmtt_secs,
        r.run.p95_slowdown,
        r.run.failed_jobs as f64,
        r.faults.blocks_re_replicated as f64,
    ]
}

fn write(name: &str, ext: &str, contents: &str) {
    let mut path = csv_path(name);
    path.set_extension(ext);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("[farm] wrote {}", path.display()),
        Err(e) => eprintln!("[farm] could not write {}: {e}", path.display()),
    }
}

/// Execute the farm: the sweep at 1 thread and at all cores, a runtime
/// byte-stability assertion over the merged outputs, the three merged
/// files, and the `BENCH_farm.json` throughput report.
pub fn run(seed: u64, seeds: u32) {
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let spec = spec(seed, seeds, quick);
    let cells = spec.cell_count();
    let multi = RunOptions::all_cores();
    println!(
        "[farm] {} cells ({} coordinates x {} seeds), single-threaded pass then {} threads",
        cells,
        cells / seeds as usize,
        seeds,
        multi.threads
    );

    let t0 = std::time::Instant::now();
    let single = run_sweep(&spec, &METRICS, RunOptions::quiet(1), |c| run_cell(c, quick));
    let t_single = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let parallel = run_sweep(&spec, &METRICS, multi, |c| run_cell(c, quick));
    let t_multi = t1.elapsed().as_secs_f64();

    // The whole point of the harness: merged bytes must not depend on
    // thread count. Enforced on every run, not just in the test suite.
    let cells_csv = per_cell_csv(&single);
    let agg_csv = aggregate_csv(&single);
    let json = merged_json(&single);
    assert_eq!(cells_csv, per_cell_csv(&parallel), "per-cell CSV differs across thread counts");
    assert_eq!(agg_csv, aggregate_csv(&parallel), "aggregate CSV differs across thread counts");
    assert_eq!(json, merged_json(&parallel), "merged JSON differs across thread counts");
    println!("[farm] merged outputs byte-identical at 1 vs {} threads", multi.threads);

    write("farm_cells", "csv", &cells_csv);
    write("farm_agg", "csv", &agg_csv);
    write("farm_merged", "json", &json);

    let cps_single = cells as f64 / t_single.max(1e-9);
    let cps_multi = cells as f64 / t_multi.max(1e-9);
    let efficiency = (t_single / t_multi.max(1e-9)) / multi.threads as f64;
    println!(
        "[farm] {cells} cells: {t_single:.2}s at 1 thread ({cps_single:.2} cells/s), \
         {t_multi:.2}s at {} threads ({cps_multi:.2} cells/s, {:.0}% scaling efficiency)",
        multi.threads,
        efficiency * 100.0
    );

    let bench = format!(
        "{{\n  \"config\": {{\"quick\": {quick}, \"base_seed\": {seed}, \"seeds\": {seeds}, \
         \"cells\": {cells}, \"jobs_per_cell\": {}}},\n\
         \"single\": {{\"threads\": 1, \"secs\": {t_single:.3}, \"cells_per_sec\": {cps_single:.3}}},\n\
         \"parallel\": {{\"threads\": {}, \"secs\": {t_multi:.3}, \"cells_per_sec\": {cps_multi:.3}}},\n\
         \"scaling_efficiency\": {efficiency:.3},\n  \"byte_stable\": true\n}}\n",
        jobs_per_cell(quick),
        multi.threads
    );
    write("BENCH_farm", "json", &bench);
}
