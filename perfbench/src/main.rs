//! perfbench — the repository benchmark of the DARE simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-matrix|traced-faults|chaos-campaign|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload in rounds for
//! `--seconds` (at least three rounds) and reports medians of host time,
//! each round's scaled to a nominal host speed (see `calib.rs`), plus the
//! simulated DARE outcome. `--workload all` runs each workload
//! in a child process of its own. A traced run (`--trace 1`) runs one
//! round with trace recording, telemetry and exports off, one with trace
//! recording forced on and one with it forced off, then observed rounds
//! with every observer on, and reports per-layer metrics. Each run prints
//! `metric <name> <value> <unit> <better>` lines and, last, one JSON
//! result line. See `perfbench/README.md`.

mod calib;
mod cases;
mod metrics;
mod run;
mod spans;

use calib::Calib;
use cases::{Case, Size};
use metrics::{is_count, MetricDef, END_TO_END, PER_LAYER};
use run::{round, Mode, Round, SimOut};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_111_026;
/// A seed kept out of every tuning run, for checking a claimed change on
/// inputs it was not written against.
const HELD_OUT_SEED: u64 = 4_242_424_243;
/// Rounds an untraced run makes however short `--seconds` is: enough for
/// a median and for the repeat-run determinism check.
const MIN_ROUNDS: usize = 3;
/// Observed rounds of a traced run, whose counts must agree.
const MIN_OBSERVED: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("bad --size {value} (full or tiny)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]",
                cases::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        run_all();
        return;
    }
    let Some(case) = cases::build(&args.workload, args.seed, args.size) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {} or all)",
            args.workload,
            cases::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    bench(&case, &args);
}

/// `--workload all`: each workload in a child process of its own, one
/// after another, so that `peak_rss_mb` (the process's high-water mark)
/// belongs to that workload alone.
fn run_all() {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot find own executable: {e}");
        std::process::exit(2);
    });
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for name in cases::NAMES {
        let mut child_args = argv.clone();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = name.to_string();
        }
        let status = std::process::Command::new(&exe).args(&child_args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: workload {name} exited with {s}");
                std::process::exit(s.code().unwrap_or(1));
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {name}: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// Run one workload and print its result. A failed check is reported in
/// the result line, not in the exit code.
fn bench(case: &Case, args: &Args) {
    let mut spans = Spans::new(args.trace);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut reference_attempted = 0;
    if args.trace {
        let plain = round(case, Mode::Plain, &mut spans, None);
        let on = round(case, Mode::Trace(true), &mut spans, None);
        let off = round(case, Mode::Trace(false), &mut spans, None);
        let mut observed = Vec::new();
        while observed.len() < MIN_OBSERVED || start.elapsed().as_secs_f64() < args.seconds {
            observed.push(round(case, Mode::Observed, &mut spans, None));
        }
        for def in PER_LAYER {
            let per_round: Vec<f64> = observed
                .iter()
                .map(|r| r.layers.get(def.name).copied().unwrap_or(0.0))
                .collect();
            if is_count(def) && per_round.iter().any(|v| *v != per_round[0]) {
                failures.push(format!(
                    "{} differs between traced rounds: {per_round:?}",
                    def.name
                ));
            }
            values.insert(def.name, median(&per_round));
        }
        // Set after the loop above, which gives every other metric a value.
        values.insert("trace.record_s", on.loop_s - off.loop_s);
        values.insert("bench.untraced_s", plain.wall_s);
        let traced = median(&observed.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        values.insert("bench.traced_s", traced);
        values.insert("bench.tracing_overhead_s", traced - plain.wall_s);
        rounds.push(plain);
        rounds.push(on);
        rounds.push(off);
        rounds.extend(observed);
    } else {
        // The reference simulations run once, before the timed rounds.
        let reference = round(case, Mode::Reference, &mut spans, None);
        let mut calib = Calib::new();
        let start = Instant::now();
        while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
            rounds.push(round(case, Mode::Timed, &mut spans, Some(&mut calib)));
        }
        let median_of = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        values.insert("setup_s", median_of(|r| r.setup_s * r.speed.to_nominal()));
        values.insert("run_s", median_of(|r| r.run_s() * r.speed.to_nominal()));
        values.insert("peak_rss_mb", peak_rss_mb());
        outcome_metrics(case, &rounds[0], &reference, &mut values);
        reference_attempted = reference.attempted;
        failures.extend(reference.failures.iter().map(|f| format!("reference: {f}")));
    }

    let attempted: u64 = reference_attempted + rounds.iter().map(|r| r.attempted).sum::<u64>();
    for (i, r) in rounds.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("round {i}: {f}")));
        // Every round runs the same inputs: each simulation must end in
        // the same state and dispatch the same events every time.
        for (s, (a, b)) in rounds[0].outs.iter().zip(&r.outs).enumerate() {
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    failures.push(format!(
                        "round {i}: sim {s} is not deterministic: {a:?} vs {b:?}"
                    ));
                }
            }
        }
    }
    let failed = (failures.len() as u64).min(attempted);
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }

    println!(
        "# perfbench workload={} seed={} trace={} rounds={}",
        case.name,
        args.seed,
        args.trace as u8,
        rounds.len()
    );
    println!("# record {}", record(case, args));
    let list = |f: fn(&Round) -> f64| {
        rounds
            .iter()
            .map(|r| format!("{:.4}", f(r)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "# rounds host setup_s=[{}] run_s=[{}] sample_us=[{}]",
        list(|r| r.setup_s),
        list(Round::run_s),
        list(|r| r.speed.sample_mean().unwrap_or(0.0) * 1e6)
    );
    let defs: &[MetricDef] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json_metrics = String::new();
    for def in defs {
        let v = values.get(def.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        println!("metric {} {} {} {}", def.name, v, def.unit, def.better);
        if !json_metrics.is_empty() {
            json_metrics.push(',');
        }
        let _ = write!(
            json_metrics,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            def.name, v, def.unit
        );
    }
    println!(
        "error_rate {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    if args.trace {
        write_spans(case, args, &spans);
    }
    let correct = failed == 0;
    println!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json_metrics}}}}}");
}

/// Simulated DARE outcome over the DARE simulations: task-weighted
/// node-local fraction, job-weighted geometric-mean turnaround, and the
/// geometric mean of each DARE run's GMTT over its vanilla twin's, taken
/// from a timed round and the reference round.
fn outcome_metrics(
    case: &Case,
    r: &Round,
    reference: &Round,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let outs: Vec<Option<&SimOut>> = r
        .outs
        .iter()
        .zip(&reference.outs)
        .map(|(a, b)| a.as_ref().or(b.as_ref()))
        .collect();
    let (mut local, mut maps, mut log_tt, mut jobs) = (0u64, 0u64, 0.0, 0usize);
    for (sim, out) in case.sims.iter().zip(&outs) {
        if let (true, Some(o)) = (sim.dare, out) {
            local += o.node_local;
            maps += o.maps;
            if o.jobs > 0 {
                log_tt += o.gmtt_secs.ln() * o.jobs as f64;
                jobs += o.jobs;
            }
        }
    }
    values.insert("locality", local as f64 / maps.max(1) as f64);
    values.insert(
        "gmtt_s",
        if jobs > 0 {
            (log_tt / jobs as f64).exp()
        } else {
            0.0
        },
    );
    let ratios: Vec<f64> = case
        .pairs
        .iter()
        .filter_map(|&(d, v)| match (outs[d], outs[v]) {
            (Some(d), Some(v)) if d.jobs > 0 && v.jobs > 0 => {
                Some((d.gmtt_secs / v.gmtt_secs).ln())
            }
            _ => None,
        })
        .collect();
    let ratio = if ratios.is_empty() {
        0.0
    } else {
        (ratios.iter().sum::<f64>() / ratios.len() as f64).exp()
    };
    values.insert("gmtt_vs_vanilla", ratio);
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Input sizes, seeds, host and build, as one JSON object.
fn record(case: &Case, args: &Args) -> String {
    let (mut nodes, mut jobs, mut files, mut blocks, mut maps) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for sim in &case.sims {
        let wl = &case.inputs[sim.input];
        let bs = sim.cfg.dfs.block_size;
        nodes += sim.cfg.profile.nodes as u64;
        jobs += wl.jobs.len() as u64;
        files += wl.files.len() as u64;
        blocks += wl
            .files
            .iter()
            .map(|f| f.size_bytes.div_ceil(bs))
            .sum::<u64>();
        maps += wl.jobs.iter().map(|j| wl.maps_of(j, bs)).sum::<u64>();
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED},\
         \"size\":\"{}\",\"inputs\":{{\"simulations\":{},\"nodes\":{nodes},\"jobs\":{jobs},\"files\":{files},\
         \"blocks\":{blocks},\"map_tasks\":{maps},\"chaos_runs\":{}}},\"host\":{{\"nproc\":{nproc},\
         \"rustc\":\"{}\",\"git_rev\":\"{}\",\"profile\":\"{}\"}}}}",
        case.name,
        args.seed,
        if args.size == Size::Full { "full" } else { "tiny" },
        case.sims.len(),
        case.campaigns.iter().map(|c| c.budget_runs).sum::<u64>(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Write the traced run's spans to `.bench_out/` in the working directory.
fn write_spans(case: &Case, args: &Args, spans: &Spans) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{}.jsonl", case.name, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_jsonl())) {
        Ok(()) => println!("# spans {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
