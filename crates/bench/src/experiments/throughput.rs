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
//! Each 1k-node leg is timed as the median of at least 5 rounds and of
//! at least 1 s of event loop in total, with the two legs' rounds
//! interleaved; the report records each leg's `rounds`.
//!
//! Output is `results/BENCH_throughput.json`. The run fails (non-zero
//! through the dispatcher) when the batched configuration is less than
//! 3.70× the staggered baseline on the 1k-node profile, or when
//! its speedup ratio regresses more than 20% below the one computed from
//! the committed report's two legs — ratios, not absolute rates, so the
//! gate holds across machines. A committed report that is missing or
//! lacks either leg fails that gate too.
//!
//! `BENCH_QUICK=1` (or `--quick`) skips only the 10,000-node ×
//! 1,000,000-map-task headline run; the 1k-node legs are identical in
//! both modes, so the quick-mode speedup is directly comparable to the
//! committed full-mode report the regression gate reads. The full run
//! additionally performs the headline and records its wall clock and
//! events/sec.

use crate::harness::{experiments_command, results_dir, write_bench, DEFAULT_SEED};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig, SimResult};
use dare_net::ClusterProfile;
use dare_simcore::json::{self, Json};
use dare_simcore::stats::quantile;
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
/// Event-loop wall seconds the rounds of one leg add up to at least.
const LEG_SECS: f64 = 1.0;
/// Fewest rounds of a 1k-node leg.
const LEG_ROUNDS: usize = 5;

/// A scale workload: `jobs` jobs round-robin over `files` files of
/// `blocks_per_file` blocks (= map tasks per job), arrivals spread
/// uniformly over `window_secs`, `map_secs` of compute per map.
pub fn scale_workload(
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
    /// Rounds the medians are taken over.
    rounds: usize,
    /// Median wall seconds of the event loop (`Engine::run` after
    /// construction); `events_per_sec` is quoted against this, because it
    /// is the event kernel and dispatch machinery under test — setup is
    /// identical work across legs and reported separately.
    wall_secs: f64,
    /// Median wall seconds of `Engine::new`.
    setup_secs: f64,
    logical_events: u64,
    events_per_sec: f64,
    makespan_secs: f64,
}

/// One leg's per-round samples.
#[derive(Default)]
struct Rounds {
    walls: Vec<f64>,
    setups: Vec<f64>,
    last: Option<SimResult>,
}

impl Rounds {
    fn loop_secs(&self) -> f64 {
        self.walls.iter().sum()
    }
}

/// Time `legs` on `wl`, each as the median of at least `min_rounds`
/// rounds and of [`LEG_SECS`] of event loop. The runs are deterministic,
/// so round-to-round spread is host noise: a leg of a few hundredths of
/// a second needs many rounds before its median settles, and the legs'
/// rounds interleave (the leg with the least loop time so far runs
/// next) so that a host slowing down mid-run slows every leg alike.
fn run_legs<const N: usize>(
    legs: [(&'static str, SimConfig); N],
    min_rounds: usize,
    wl: &Workload,
) -> [Leg; N] {
    let mut rounds: [Rounds; N] = std::array::from_fn(|_| Rounds::default());
    let done = |r: &Rounds| r.walls.len() >= min_rounds && r.loop_secs() >= LEG_SECS;
    while let Some(i) = (0..N)
        .filter(|&i| !done(&rounds[i]))
        .min_by(|&a, &b| rounds[a].loop_secs().total_cmp(&rounds[b].loop_secs()))
    {
        let r = &mut rounds[i];
        let t0 = std::time::Instant::now();
        let engine = dare_mapred::Engine::new(legs[i].1.clone(), wl);
        r.setups.push(t0.elapsed().as_secs_f64());
        let t1 = std::time::Instant::now();
        r.last = Some(engine.run());
        r.walls.push(t1.elapsed().as_secs_f64().max(1e-9));
    }
    std::array::from_fn(|i| {
        let (name, r) = (legs[i].0, std::mem::take(&mut rounds[i]));
        let result = r.last.expect("at least one round");
        let wall_secs = quantile(&r.walls, 0.5);
        let leg = Leg {
            name,
            rounds: r.walls.len(),
            wall_secs,
            setup_secs: quantile(&r.setups, 0.5),
            logical_events: result.logical_events,
            events_per_sec: result.logical_events as f64 / wall_secs,
            makespan_secs: result.run.makespan_secs,
        };
        println!(
            "[throughput] {:<18} {:>12} logical events in {:>7.3}s wall (+{:.3}s setup; median of {}) = {:>12.0} ev/s (makespan {:.0}s, {} jobs)",
            leg.name, leg.logical_events, leg.wall_secs, leg.setup_secs, leg.rounds, leg.events_per_sec, leg.makespan_secs, result.run.jobs
        );
        leg
    })
}

fn leg_json(l: &Leg) -> Json {
    Json::obj([
        ("name", Json::from(l.name)),
        ("rounds", l.rounds.into()),
        ("wall_secs", Json::fixed(l.wall_secs, 3)),
        ("setup_secs", Json::fixed(l.setup_secs, 3)),
        ("logical_events", l.logical_events.into()),
        ("events_per_sec", Json::fixed(l.events_per_sec, 0)),
        ("makespan_secs", Json::fixed(l.makespan_secs, 1)),
    ])
}

/// The batched-vs-staggered speedup of a throughput report's two legs.
fn committed_speedup(report: &str) -> Result<f64, String> {
    let doc = json::parse(report)?;
    let legs = doc.get("legs")?.as_arr("legs")?;
    let rate = |name: &str| {
        legs.iter()
            .find(|l| l.get("name").and_then(|n| n.as_str("name")) == Ok(name))
            .ok_or_else(|| format!("no \"{name}\" leg"))?
            .get("events_per_sec")?
            .as_f64("events_per_sec")
    };
    Ok(rate("calendar-batched")? / rate("calendar-staggered")?)
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

    let legs = [
        ("calendar-staggered", scale_cfg(nodes)),
        (
            "calendar-batched",
            scale_cfg(nodes).with_batched_heartbeats(),
        ),
    ];
    let [cal, opt] = run_legs(legs, LEG_ROUNDS, &wl);

    let speedup = opt.events_per_sec / cal.events_per_sec;
    println!("[throughput] batched speedup vs staggered baseline: {speedup:.2}x");
    if speedup < MIN_SPEEDUP {
        eprintln!("[throughput] FAIL: speedup {speedup:.2}x < required {MIN_SPEEDUP:.1}x");
        failed += 1;
    }

    // --- Regression gate against the committed report (ratio-based).
    let report_path = results_dir().join("BENCH_throughput.json");
    let committed = std::fs::read_to_string(&report_path);
    let committed = committed.map_err(|e| format!("cannot read it: {e}"));
    match committed.and_then(|report| committed_speedup(&report)) {
        Ok(prev) => {
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
        Err(e) => {
            eprintln!(
                "[throughput] FAIL: regression gate has no committed baseline in {}: {e}",
                report_path.display()
            );
            failed += 1;
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
        let cfg = scale_cfg(10_000).with_batched_heartbeats();
        let [headline] = run_legs([("headline-10k", cfg)], 1, &wl);
        Some(headline)
    };

    // --- Report.
    let headline = headline.map_or(Json::Null, |h| {
        Json::obj([
            ("nodes", Json::from(10_000u32)),
            ("map_tasks", 1_000_000u32.into()),
            ("wall_secs", Json::fixed(h.wall_secs, 3)),
            ("setup_secs", Json::fixed(h.setup_secs, 3)),
            ("logical_events", h.logical_events.into()),
            ("events_per_sec", Json::fixed(h.events_per_sec, 0)),
        ])
    });
    let written = write_bench(
        "throughput",
        &experiments_command("throughput", DEFAULT_SEED, 1, quick),
        [
            ("quick", Json::from(quick)),
            ("nodes", nodes.into()),
            ("map_tasks", tasks.into()),
            ("legs", Json::Arr(vec![leg_json(&cal), leg_json(&opt)])),
            ("speedup_vs_staggered", Json::fixed(speedup, 3)),
            ("headline", headline),
        ],
    );
    if !written {
        failed += 1;
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(legs: &[(&str, u32)]) -> String {
        let legs = legs.iter().map(|&(name, rate)| {
            Json::obj([("name", Json::from(name)), ("events_per_sec", rate.into())])
        });
        Json::obj([("legs", legs.collect())]).render()
    }

    #[test]
    fn the_regression_gate_needs_both_committed_legs() {
        let both = report(&[("calendar-staggered", 100), ("calendar-batched", 400)]);
        assert_eq!(committed_speedup(&both), Ok(4.0));
        let one = report(&[("calendar-staggered", 100)]);
        let err = committed_speedup(&one).unwrap_err();
        assert!(err.contains("no \"calendar-batched\" leg"), "{err}");
        assert!(committed_speedup("{}").unwrap_err().contains("legs"));
        assert!(committed_speedup("").is_err());

        let path = results_dir().join("BENCH_throughput.json");
        let committed = std::fs::read_to_string(path).expect("committed throughput report");
        let speedup = committed_speedup(&committed).expect("both legs committed");
        assert!(speedup >= MIN_SPEEDUP, "committed speedup {speedup:.2}x");
    }
}
