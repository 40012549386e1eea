//! Event-kernel throughput benchmark (`experiments -- throughput`).
//!
//! Drives the full engine — not a synthetic queue microbench — on the
//! scale-out cluster profile and measures logical simulation events per
//! wall-clock second under two configurations of the same scenario:
//!
//! * `calendar-staggered` — per-node heartbeat chains, the baseline the
//!   speedup is quoted against;
//! * `calendar-batched` — batched heartbeats: the configuration the
//!   10k-node headline runs use.
//!
//! "Logical events" is [`dare_mapred::SimResult::logical_events`]: one
//! per dispatched event, with a batched heartbeat tick counted once per
//! node it services, so the batched and per-node legs are charged for the
//! same simulated work and the ratio measures engine efficiency, not
//! metric redefinition.
//!
//! Output is `results/BENCH_throughput.json`. The run fails (non-zero
//! through the dispatcher) when the batched configuration is less than
//! 3.70× the staggered baseline on the 1k-node profile, or when
//! its speedup ratio regresses more than 20% below the one computed from
//! the committed report's two legs — ratios, not absolute rates, so the
//! gate holds across machines.
//!
//! `BENCH_QUICK=1` (or `--quick`) skips only the 10,000-node ×
//! 1,000,000-map-task headline run; the 1k-node legs are identical in
//! both modes, so the quick-mode speedup is directly comparable to the
//! committed full-mode report the regression gate reads. The full run
//! additionally performs the headline and records its wall clock and
//! events/sec.

use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig, SimResult};
use dare_net::ClusterProfile;
use dare_simcore::{SimDuration, SimTime};
use dare_workload::{FileSpec, JobSpec, Workload};

const MB: u64 = 1024 * 1024;
const BLOCK: u64 = 128 * MB;

/// Minimum batched-vs-staggered speedup on the 1k-node profile:
/// 5 × 6,394,093 / 8,639,145 — the 5× floor over the binary-heap event
/// kernel, carried over through the last measured heap vs
/// calendar-staggered rates (see EXPERIMENTS.md).
const MIN_SPEEDUP: f64 = 3.70;
/// Largest tolerated relative drop below the committed report's speedup.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// A scale workload: `jobs` jobs round-robin over `files` files of
/// `blocks_per_file` blocks (= map tasks per job), arrivals spread
/// uniformly over `window_secs`, `map_secs` of compute per map.
fn scale_workload(
    files: usize,
    blocks_per_file: u64,
    jobs: u32,
    window_secs: u64,
    map_secs: u64,
) -> Workload {
    let file_specs: Vec<FileSpec> = (0..files)
        .map(|i| FileSpec {
            name: format!("s{i}"),
            size_bytes: blocks_per_file * BLOCK,
        })
        .collect();
    let job_specs: Vec<JobSpec> = (0..jobs)
        .map(|id| JobSpec {
            id,
            arrival: SimTime::from_secs(window_secs * id as u64 / jobs.max(1) as u64),
            file: id as usize % files,
            map_compute: SimDuration::from_secs(map_secs),
            reduces: 1,
            output_bytes: 10 * MB,
        })
        .collect();
    Workload {
        name: "scale".into(),
        files: file_specs,
        jobs: job_specs,
    }
}

/// Base configuration of one leg: vanilla policy with delay scheduling
/// on the scale profile. Delay scheduling keeps most reads node-local,
/// so the measurement is dominated by the event kernel and heartbeat
/// machinery — the things this benchmark exists to compare — rather
/// than by remote-fetch flow recomputation.
fn scale_cfg(nodes: u32) -> SimConfig {
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::fair_default(), 20110926);
    cfg.profile = ClusterProfile::scale(nodes);
    cfg
}

struct Leg {
    name: &'static str,
    /// Wall seconds of the event loop (`Engine::run` after construction);
    /// `events_per_sec` is quoted against this, because it is the event
    /// kernel and dispatch machinery under test — setup is identical
    /// work across legs and reported separately.
    wall_secs: f64,
    setup_secs: f64,
    logical_events: u64,
    events_per_sec: f64,
    makespan_secs: f64,
}

fn run_leg_with(name: &'static str, rounds: u32, cfg: &SimConfig, wl: &Workload) -> Leg {
    // Diagnostic: attribute each leg's wall time to queue ops vs
    // scheduler decisions via the engine's self-profiler. Off by default
    // because the two `Instant` reads per event skew the wall clock the
    // leg itself reports.
    let profile = std::env::var_os("DARE_BENCH_PROFILE").is_some_and(|v| v != "0");
    // Best-of-`rounds`: the runs are deterministic, so the fastest
    // repetition is the least-perturbed measurement of the same work.
    let mut best: Option<(f64, f64)> = None;
    let mut last: Option<SimResult> = None;
    for _ in 0..rounds {
        let mut cfg = cfg.clone();
        cfg.self_profile = profile;
        let t0 = std::time::Instant::now();
        let engine = dare_mapred::Engine::new(cfg, wl);
        let setup_secs = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let r: SimResult = engine.run();
        let wall_secs = t1.elapsed().as_secs_f64().max(1e-9);
        if best.is_none_or(|(w, _)| wall_secs < w) {
            best = Some((wall_secs, setup_secs));
        }
        last = Some(r);
    }
    let (wall_secs, setup_secs) = best.expect("at least one round");
    let r = last.expect("at least one round");
    if let Some(p) = &r.profile {
        println!("[throughput]   profile {name}: {}", p.summary());
    }
    let leg = Leg {
        name,
        wall_secs,
        setup_secs,
        logical_events: r.logical_events,
        events_per_sec: r.logical_events as f64 / wall_secs,
        makespan_secs: r.run.makespan_secs,
    };
    println!(
        "[throughput] {:<18} {:>12} logical events in {:>7.2}s wall (+{:.2}s setup) = {:>12.0} ev/s (makespan {:.0}s, {} jobs)",
        leg.name, leg.logical_events, leg.wall_secs, leg.setup_secs, leg.events_per_sec, leg.makespan_secs, r.run.jobs
    );
    leg
}

fn run_leg(name: &'static str, cfg: SimConfig, wl: &Workload) -> Leg {
    run_leg_with(name, 3, &cfg, wl)
}

/// Pull `"key": <number>` out of the committed report (hand-rolled like
/// every other JSON reader in this offline workspace).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn leg_json(l: &Leg) -> String {
    format!(
        "    {{\"name\": \"{}\", \"wall_secs\": {:.3}, \"setup_secs\": {:.3}, \"logical_events\": {}, \"events_per_sec\": {:.0}, \"makespan_secs\": {:.1}}}",
        l.name, l.wall_secs, l.setup_secs, l.logical_events, l.events_per_sec, l.makespan_secs
    )
}

/// Run the benchmark. Returns the number of failed gates.
pub fn run(_seed: u64) -> usize {
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0")
        || std::env::args().any(|a| a == "--quick");
    let mut failed = 0usize;

    // --- 1k-node profile: staggered vs batched heartbeats.
    // A cluster-scale-dominated scenario: long maps on a big cluster, so
    // the event stream is mostly heartbeat machinery — the regime the
    // 10k-node runs live in, and the one the kernel work targets.
    let nodes = 1_000;
    // Same scenario in quick and full mode: the 1k legs cost a few
    // seconds, and an identical scenario keeps the quick-mode speedup
    // directly comparable to the committed full-mode ratio the
    // regression gate checks against. Quick mode only skips the
    // 10k-node headline.
    let (files, blocks, jobs, window, map_secs) = (40, 250, 40, 3_600, 600);
    let wl = scale_workload(files, blocks, jobs, window, map_secs);
    let tasks = blocks * jobs as u64;
    println!(
        "[throughput] 1k-node profile: {nodes} nodes, {tasks} map tasks{}",
        if quick { " (quick)" } else { "" }
    );

    let cal = run_leg("calendar-staggered", scale_cfg(nodes), &wl);
    let opt = run_leg(
        "calendar-batched",
        scale_cfg(nodes).with_batched_heartbeats(),
        &wl,
    );

    let speedup = opt.events_per_sec / cal.events_per_sec;
    println!("[throughput] batched speedup vs staggered baseline: {speedup:.2}x");
    if speedup < MIN_SPEEDUP {
        eprintln!("[throughput] FAIL: speedup {speedup:.2}x < required {MIN_SPEEDUP:.1}x");
        failed += 1;
    }

    // --- Regression gate against the committed report (ratio-based).
    let results = crate::harness::csv_path("x");
    let results = results.parent().expect("csv dir").to_path_buf();
    let report_path = results.join("BENCH_throughput.json");
    if let Ok(committed) = std::fs::read_to_string(&report_path) {
        let leg_rate = |name: &str| {
            let at = committed.find(&format!("\"name\": \"{name}\""))?;
            json_number(&committed[at..], "events_per_sec")
        };
        if let (Some(base), Some(batched)) =
            (leg_rate("calendar-staggered"), leg_rate("calendar-batched"))
        {
            let prev = batched / base;
            let floor = prev * (1.0 - REGRESSION_TOLERANCE);
            if speedup < floor {
                eprintln!(
                    "[throughput] FAIL: speedup {speedup:.2}x regressed >20% below committed {prev:.2}x (floor {floor:.2}x)"
                );
                failed += 1;
            } else {
                println!(
                    "[throughput] regression gate ... ok ({speedup:.2}x vs committed {prev:.2}x, floor {floor:.2}x)"
                );
            }
        }
    }

    // --- Headline run: 10k nodes, one million map tasks (full mode only).
    let headline = if quick {
        println!("[throughput] quick mode: skipping the 10k-node headline run");
        None
    } else {
        // 100 big jobs of 10,000 maps each — the classic shape of a
        // million-task run. Big files mean dense replica coverage
        // (each node holds ~3 blocks of every file), so delay
        // scheduling keeps reads node-local and the run measures the
        // event kernel rather than remote-fetch flow recomputation.
        // See `examples/headline_probe.rs` for the profiling harness
        // used to pick this shape.
        let wl = scale_workload(100, 10_000, 100, 600, 300);
        println!("[throughput] headline: 10000 nodes, 1000000 map tasks");
        Some(run_leg_with(
            "headline-10k",
            1,
            &scale_cfg(10_000).with_batched_heartbeats(),
            &wl,
        ))
    };

    // --- Report.
    let mut json = String::from("{\n  \"schema\": \"dare-throughput-v1\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"profile_1k\": {{\n    \"nodes\": {nodes},\n    \"map_tasks\": {tasks},\n"
    ));
    json.push_str("  \"legs\": [\n");
    json.push_str(&leg_json(&cal));
    json.push_str(",\n");
    json.push_str(&leg_json(&opt));
    json.push_str("\n  ],\n");
    json.push_str(&format!("  \"speedup_vs_staggered\": {speedup:.3}\n  }}"));
    if let Some(h) = &headline {
        json.push_str(",\n  \"headline\": {\n    \"nodes\": 10000,\n    \"map_tasks\": 1000000,\n");
        json.push_str(&format!(
            "    \"wall_secs\": {:.3},\n    \"setup_secs\": {:.3},\n    \"logical_events\": {},\n    \"events_per_sec\": {:.0}\n  }}",
            h.wall_secs, h.setup_secs, h.logical_events, h.events_per_sec
        ));
    }
    json.push_str("\n}\n");

    match std::fs::write(&report_path, &json) {
        Ok(()) => println!("[throughput] wrote {}", report_path.display()),
        Err(e) => {
            eprintln!(
                "[throughput] could not write {}: {e}",
                report_path.display()
            );
            failed += 1;
        }
    }
    failed
}
