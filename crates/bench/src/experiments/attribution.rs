//! Critical-path attribution experiment (`experiments -- attribution`).
//!
//! Runs the pinned golden matrix (FIFO/Fair × vanilla/DARE-LRU) on two
//! workloads — the golden dozen-job SWIM trace and the skew-heavy
//! "yahoo" profile — with tracing on, feeds every trace through
//! `dare-xray`, and reports *where the turnaround went*: per-cell mean
//! critical-path seconds in each lifecycle bucket plus the what-if
//! turnaround bounds. The headline number is `cp_fetch_s`, the
//! critical-path seconds attributable to non-local fetches: comparing
//! it between vanilla and DARE-LRU says how much of the policy's
//! fig7-style turnaround win is explained by moving remote fetches off
//! the critical path (the paper's core mechanism) rather than by
//! queueing side effects.
//!
//! Output is `results/attribution.csv` (one row per workload ×
//! scheduler × policy; `--seeds N` appends spread columns) and
//! `results/BENCH_xray.json` with the base-seed comparison and gate
//! results. Like the golden harness, the matrix is pinned to
//! [`GOLDEN_SEED`] — `--seed` is ignored — so the gates check exact,
//! reproducible numbers:
//!
//! 1. every cell's xray report passes `check()` (components sum to the
//!    measured wall clock exactly; what-ifs never exceed actual);
//! 2. on the yahoo profile, DARE-LRU's total critical-path fetch
//!    seconds are strictly below vanilla's for every scheduler;
//! 3. the xray CSV/JSON exports are byte-identical when the same cell
//!    is simulated and analyzed twice.

use crate::harness::{metric, replicate_experiment, MetricCol, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::golden::{golden_params, yahoo_params, GOLDEN_SEED};
use dare_mapred::{SchedulerKind, SimConfig};
use dare_workload::swim::{synthesize, SwimParams};
use dare_workload::Workload;
use dare_xray::{analyze, Bucket, XrayReport};

/// The scheduler × policy grid every workload runs under.
fn grid() -> Vec<(&'static str, SchedulerKind, &'static str, PolicyKind)> {
    vec![
        ("fifo", SchedulerKind::Fifo, "vanilla", PolicyKind::Vanilla),
        (
            "fifo",
            SchedulerKind::Fifo,
            "dare-lru",
            PolicyKind::GreedyLru,
        ),
        (
            "fair",
            SchedulerKind::fair_default(),
            "vanilla",
            PolicyKind::Vanilla,
        ),
        (
            "fair",
            SchedulerKind::fair_default(),
            "dare-lru",
            PolicyKind::GreedyLru,
        ),
    ]
}

/// The two workload shapes, resynthesized per replicate seed.
fn workloads(seed: u64) -> Vec<Workload> {
    let shapes: [(&str, SwimParams); 2] = [("golden", golden_params()), ("yahoo", yahoo_params())];
    shapes
        .into_iter()
        .map(|(name, params)| synthesize(name, &params, seed))
        .collect()
}

/// Run one traced cell and return its xray report.
fn run_cell(wl: &Workload, sched: SchedulerKind, policy: PolicyKind, seed: u64) -> XrayReport {
    let mut cfg = SimConfig::cct(policy, sched, seed);
    // Full-share budget for the same reason the golden scenarios use
    // it: these datasets are tiny, and the paper's 0.2 fraction would
    // round a node's budget below one block.
    cfg.budget_frac = 1.0;
    cfg.record_trace = true;
    let r = dare_mapred::run(cfg, wl);
    analyze(&r.trace.expect("attribution cells record traces"))
}

/// Per-job means (seconds) for one cell, in the metric column order.
fn cell_metrics(report: &XrayReport) -> Vec<f64> {
    let t = report.totals();
    let n = (t.jobs as f64).max(1.0);
    let mean = |us: u64| us as f64 / 1e6 / n;
    vec![
        mean(t.turnaround_us),
        mean(t.cp_us[Bucket::Queue as usize]),
        mean(t.cp_us[Bucket::SchedDelay as usize]),
        mean(t.cp_us[Bucket::Fetch as usize]),
        mean(t.cp_us[Bucket::Recovery as usize]),
        mean(t.cp_us[Bucket::Compute as usize]),
        mean(t.cp_us[Bucket::Retry as usize]),
        mean(t.reduce_us),
        mean(t.whatif_all_local_us),
        mean(t.whatif_zero_sched_us),
    ]
}

const METRICS: [MetricCol; 10] = [
    metric("turnaround_s", 3),
    metric("cp_queue_s", 3),
    metric("cp_sched_delay_s", 3),
    metric("cp_fetch_s", 3),
    metric("cp_recovery_s", 3),
    metric("cp_compute_s", 3),
    metric("cp_retry_s", 3),
    metric("reduce_s", 3),
    metric("whatif_all_local_s", 3),
    metric("whatif_zero_sched_s", 3),
];

/// Run the experiment. Returns the number of failed gates.
pub fn run(_seed: u64, seeds: u32) -> usize {
    // The gates compare exact integers on the pinned matrix, so like
    // trace-smoke this experiment ignores `--seed`.
    let mut failed = 0usize;

    // --- Base-seed matrix: gates + the BENCH report.
    // cell key -> (jobs, turnaround_us, cp_fetch_us, whatif_all_local_us)
    let mut base: Vec<(String, String, String, u64, u64, u64, u64)> = Vec::new();
    for wl in workloads(GOLDEN_SEED) {
        for (sched_name, sched, policy_name, policy) in grid() {
            let report = run_cell(&wl, sched, policy, GOLDEN_SEED);
            if let Err(e) = report.check() {
                eprintln!(
                    "[attribution] FAIL: {}/{sched_name}/{policy_name}: invariant violated: {e}",
                    wl.name
                );
                failed += 1;
            }
            let t = report.totals();
            println!(
                "[attribution] {:<6} {:<4} {:<8} {} jobs: turnaround {}s, cp-fetch {}s, all-local {}s",
                wl.name,
                sched_name,
                policy_name,
                t.jobs,
                dare_xray::secs(t.turnaround_us),
                dare_xray::secs(t.cp_us[Bucket::Fetch as usize]),
                dare_xray::secs(t.whatif_all_local_us),
            );
            base.push((
                wl.name.clone(),
                sched_name.into(),
                policy_name.into(),
                t.jobs as u64,
                t.turnaround_us,
                t.cp_us[Bucket::Fetch as usize],
                t.whatif_all_local_us,
            ));
        }
    }

    let find = |wl: &str, sched: &str, policy: &str| {
        base.iter()
            .find(|(w, s, p, ..)| w == wl && s == sched && p == policy)
            .expect("base matrix covers the full grid")
    };

    // --- Gate: DARE-LRU must strictly reduce critical-path fetch
    // seconds on the skewed profile, for every scheduler.
    let mut comparisons = String::new();
    for sched in ["fifo", "fair"] {
        let van = find("yahoo", sched, "vanilla");
        let lru = find("yahoo", sched, "dare-lru");
        let (van_turn, van_fetch) = (van.4, van.5);
        let (lru_turn, lru_fetch) = (lru.4, lru.5);
        if lru_fetch >= van_fetch {
            eprintln!(
                "[attribution] FAIL: yahoo/{sched}: DARE-LRU cp-fetch {}s is not strictly \
                 below vanilla {}s",
                dare_xray::secs(lru_fetch),
                dare_xray::secs(van_fetch)
            );
            failed += 1;
        }
        let fetch_cut = van_fetch.saturating_sub(lru_fetch);
        let turn_cut = van_turn.saturating_sub(lru_turn);
        let explained = if turn_cut > 0 {
            fetch_cut as f64 / turn_cut as f64
        } else {
            0.0
        };
        println!(
            "[attribution] yahoo/{sched}: DARE-LRU cuts cp-fetch by {}s and turnaround by {}s \
             ({:.0}% of the win is critical-path fetch)",
            dare_xray::secs(fetch_cut),
            dare_xray::secs(turn_cut),
            explained * 100.0
        );
        if !comparisons.is_empty() {
            comparisons.push(',');
        }
        comparisons.push_str(&format!(
            "\n    {{\"scheduler\": \"{sched}\", \"vanilla_cp_fetch_s\": {}, \
             \"dare_lru_cp_fetch_s\": {}, \"cp_fetch_cut_s\": {}, \"turnaround_cut_s\": {}, \
             \"explained_frac\": {explained:.4}}}",
            dare_xray::secs(van_fetch),
            dare_xray::secs(lru_fetch),
            dare_xray::secs(fetch_cut),
            dare_xray::secs(turn_cut),
        ));
    }

    // --- Gate: byte-stable exports. Simulate and analyze the busiest
    // cell twice; the rendered CSV and JSON must match byte for byte.
    let yahoo = workloads(GOLDEN_SEED).pop().expect("yahoo workload");
    let a = run_cell(
        &yahoo,
        SchedulerKind::fair_default(),
        PolicyKind::GreedyLru,
        GOLDEN_SEED,
    );
    let b = run_cell(
        &yahoo,
        SchedulerKind::fair_default(),
        PolicyKind::GreedyLru,
        GOLDEN_SEED,
    );
    let byte_stable = dare_xray::to_csv(&a) == dare_xray::to_csv(&b)
        && dare_xray::to_json(&a) == dare_xray::to_json(&b);
    if byte_stable {
        println!("[attribution] export stability ... ok (two runs, identical bytes)");
    } else {
        eprintln!("[attribution] FAIL: xray exports differ between identical runs");
        failed += 1;
    }

    // --- The replicated table (CSV artifact).
    let st = replicate_experiment(
        "Critical-path attribution (golden matrix + yahoo profile)",
        &["workload", "scheduler", "policy"],
        &METRICS,
        RowOrder::FirstAppearance,
        GOLDEN_SEED,
        seeds,
        |seed| {
            let mut rows = Vec::new();
            for wl in workloads(seed) {
                for (sched_name, sched, policy_name, policy) in grid() {
                    let report = run_cell(&wl, sched, policy, seed);
                    rows.push((
                        vec![wl.name.clone(), sched_name.into(), policy_name.into()],
                        cell_metrics(&report),
                    ));
                }
            }
            rows
        },
    );
    st.emit("attribution");

    // --- Report.
    let results = crate::harness::csv_path("x");
    let report_path = results.parent().expect("csv dir").join("BENCH_xray.json");
    let mut json = String::from("{\n  \"schema\": \"dare-xray-bench-v1\",\n");
    json.push_str(&format!("  \"seed\": {GOLDEN_SEED},\n"));
    json.push_str(&format!("  \"byte_stable\": {byte_stable},\n"));
    json.push_str(&format!("  \"gates_failed\": {failed},\n"));
    json.push_str("  \"cells\": [");
    for (i, (wl, sched, policy, jobs, turn, fetch, all_local)) in base.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n    {{\"workload\": \"{wl}\", \"scheduler\": \"{sched}\", \"policy\": \"{policy}\", \
             \"jobs\": {jobs}, \"turnaround_s\": {}, \"cp_fetch_s\": {}, \"whatif_all_local_s\": {}}}",
            dare_xray::secs(*turn),
            dare_xray::secs(*fetch),
            dare_xray::secs(*all_local),
        ));
    }
    json.push_str("\n  ],\n  \"yahoo_comparisons\": [");
    json.push_str(&comparisons);
    json.push_str("\n  ]\n}\n");
    match std::fs::write(&report_path, &json) {
        Ok(()) => println!("[attribution] wrote {}", report_path.display()),
        Err(e) => {
            eprintln!(
                "[attribution] could not write {}: {e}",
                report_path.display()
            );
            failed += 1;
        }
    }
    failed
}
