//! `dare-sim` — run one cluster simulation from the command line.
//!
//! ```text
//! dare-sim --workload wl2 --scheduler fair --policy elephant --p 0.3 \
//!          --budget 0.2 --seed 7
//! dare-sim --cluster ec2 --policy lru --fail 60:3 --fail 120:9 --speculation
//! dare-sim --policy vanilla --scarlett-epoch 60
//! dare-sim mc --nodes 4 --blocks 4 --depth 10
//! ```
//!
//! Prints the run's metrics; `--csv` emits a single CSV row instead
//! (header with `--csv-header`). The `mc` subcommand runs the bounded
//! model checker over the failure/replication protocol instead of a
//! single simulation.

use dare_repro::core::PolicyKind;
use dare_repro::mapred::config::SpeculationConfig;
use dare_repro::mapred::scarlett::ScarlettConfig;
use dare_repro::mapred::{
    self, Engine, FaultPlan, ScannerConfig, SchedulerKind, SimConfig, TelemetryConfig,
};
use dare_repro::simcore::SimDuration;
use dare_repro::workload::swim::{synthesize, SwimParams};
use dare_repro::workload::Workload;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    cluster: String,
    workload: String,
    jobs: Option<u32>,
    scheduler: String,
    policy: String,
    p: f64,
    threshold: u64,
    budget: f64,
    seed: u64,
    failures: Vec<(u64, u32)>,
    degradations: Vec<(u64, u32, f64)>,
    fault_plan: Option<String>,
    scanner: Option<(u64, u64)>,
    capacity_queues: Option<u32>,
    speculation: bool,
    scarlett_epoch: Option<u64>,
    workload_in: Option<String>,
    workload_out: Option<String>,
    trace_chrome: Option<String>,
    trace_jsonl: Option<String>,
    xray: bool,
    xray_csv: Option<String>,
    xray_json: Option<String>,
    telemetry: bool,
    telemetry_interval: Option<u64>,
    telemetry_csv: Option<String>,
    telemetry_jsonl: Option<String>,
    self_profile: bool,
    csv: bool,
    csv_header: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            cluster: "cct".into(),
            workload: "wl1".into(),
            jobs: None,
            scheduler: "fifo".into(),
            policy: "elephant".into(),
            p: 0.3,
            threshold: 1,
            budget: 0.2,
            seed: 20110926,
            failures: Vec::new(),
            degradations: Vec::new(),
            fault_plan: None,
            scanner: None,
            capacity_queues: None,
            speculation: false,
            scarlett_epoch: None,
            workload_in: None,
            workload_out: None,
            trace_chrome: None,
            trace_jsonl: None,
            xray: false,
            xray_csv: None,
            xray_json: None,
            telemetry: false,
            telemetry_interval: None,
            telemetry_csv: None,
            telemetry_jsonl: None,
            self_profile: false,
            csv: false,
            csv_header: false,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cluster" => a.cluster = value("--cluster")?.clone(),
            "--workload" => a.workload = value("--workload")?.clone(),
            "--jobs" => a.jobs = Some(parse_num(value("--jobs")?)?),
            "--scheduler" => a.scheduler = value("--scheduler")?.clone(),
            "--policy" => a.policy = value("--policy")?.clone(),
            "--p" => a.p = parse_num(value("--p")?)?,
            "--threshold" => a.threshold = parse_num(value("--threshold")?)?,
            "--budget" => a.budget = parse_num(value("--budget")?)?,
            "--seed" => a.seed = parse_num(value("--seed")?)?,
            "--fail" => {
                let v = value("--fail")?;
                let (t, n) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--fail expects SECS:NODE, got {v}"))?;
                a.failures.push((parse_num(t)?, parse_num(n)?));
            }
            "--degrade" => {
                let v = value("--degrade")?;
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 3 {
                    return Err(format!("--degrade expects SECS:NODE:FACTOR, got {v}"));
                }
                a.degradations
                    .push((parse_num(parts[0])?, parse_num(parts[1])?, parse_num(parts[2])?));
            }
            "--fault-plan" => a.fault_plan = Some(value("--fault-plan")?.clone()),
            "--scanner" => {
                let v = value("--scanner")?;
                let (p, r) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--scanner expects PERIOD_SECS:MBPS, got {v}"))?;
                let period: u64 = parse_num(p)?;
                let mbps: u64 = parse_num(r)?;
                if period == 0 || mbps == 0 {
                    return Err("--scanner period and rate must be positive".into());
                }
                a.scanner = Some((period, mbps));
            }
            "--capacity-queues" => a.capacity_queues = Some(parse_num(value("--capacity-queues")?)?),
            "--speculation" => a.speculation = true,
            "--scarlett-epoch" => a.scarlett_epoch = Some(parse_num(value("--scarlett-epoch")?)?),
            "--replay" => a.workload_in = Some(value("--replay")?.clone()),
            "--save-workload" => a.workload_out = Some(value("--save-workload")?.clone()),
            "--trace" => a.trace_chrome = Some(value("--trace")?.clone()),
            "--trace-jsonl" => a.trace_jsonl = Some(value("--trace-jsonl")?.clone()),
            "--xray" => a.xray = true,
            "--xray-csv" => {
                a.xray = true;
                a.xray_csv = Some(value("--xray-csv")?.clone());
            }
            "--xray-json" => {
                a.xray = true;
                a.xray_json = Some(value("--xray-json")?.clone());
            }
            "--telemetry" => a.telemetry = true,
            "--telemetry-interval" => {
                a.telemetry = true;
                let secs: u64 = parse_num(value("--telemetry-interval")?)?;
                if secs == 0 {
                    return Err("--telemetry-interval must be positive".into());
                }
                a.telemetry_interval = Some(secs);
            }
            "--telemetry-csv" => {
                a.telemetry = true;
                a.telemetry_csv = Some(value("--telemetry-csv")?.clone());
            }
            "--self-profile" => a.self_profile = true,
            "--telemetry-jsonl" => {
                a.telemetry = true;
                a.telemetry_jsonl = Some(value("--telemetry-jsonl")?.clone());
            }
            "--csv" => a.csv = true,
            "--csv-header" => {
                a.csv = true;
                a.csv_header = true;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.fault_plan.is_some() && !(a.failures.is_empty() && a.degradations.is_empty()) {
        return Err(
            "--fault-plan replaces the whole fault schedule; drop --fail/--degrade".into(),
        );
    }
    if a.jobs == Some(0) {
        return Err("--jobs must be positive".into());
    }
    if !(0.0..=1.0).contains(&a.p) {
        return Err(format!("--p {} out of [0,1]", a.p));
    }
    if !(0.0..=1.0).contains(&a.budget) {
        return Err(format!("--budget {} out of [0,1]", a.budget));
    }
    // Every output flag must write to a distinct file: previously
    // `--trace x --trace-jsonl x` (or any other pair sharing a path)
    // silently overwrote whichever file was written first.
    let outputs = [
        ("--save-workload", &a.workload_out),
        ("--trace", &a.trace_chrome),
        ("--trace-jsonl", &a.trace_jsonl),
        ("--xray-csv", &a.xray_csv),
        ("--xray-json", &a.xray_json),
        ("--telemetry-csv", &a.telemetry_csv),
        ("--telemetry-jsonl", &a.telemetry_jsonl),
    ];
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for (flag, path) in outputs {
        if let Some(path) = path.as_deref() {
            if let Some((other, _)) = seen.iter().find(|(_, p)| *p == path) {
                return Err(format!(
                    "{other} and {flag} would both write to {path}; pick distinct output paths"
                ));
            }
            seen.push((flag, path));
        }
    }
    Ok(a)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn build_config(a: &Args) -> Result<SimConfig, String> {
    let policy = match a.policy.as_str() {
        "vanilla" => PolicyKind::Vanilla,
        "lru" => PolicyKind::GreedyLru,
        "lfu" => PolicyKind::Lfu,
        "elephant" | "et" => PolicyKind::ElephantTrap {
            p: a.p,
            threshold: a.threshold,
        },
        other => return Err(format!("unknown policy {other} (vanilla|lru|lfu|elephant)")),
    };
    let scheduler = match a.scheduler.as_str() {
        "fifo" => SchedulerKind::Fifo,
        "fair" => SchedulerKind::fair_default(),
        "capacity" => SchedulerKind::Capacity(a.capacity_queues.unwrap_or(3)),
        other => return Err(format!("unknown scheduler {other} (fifo|fair|capacity)")),
    };
    let mut cfg = match a.cluster.as_str() {
        "cct" => SimConfig::cct(policy, scheduler, a.seed),
        "ec2" => SimConfig::ec2(policy, scheduler, a.seed),
        other => return Err(format!("unknown cluster {other} (cct|ec2)")),
    };
    cfg.budget_frac = a.budget;
    if !a.failures.is_empty() {
        cfg = cfg.with_failures(a.failures.clone());
    }
    if !a.degradations.is_empty() {
        cfg = cfg.with_degradations(a.degradations.clone());
    }
    if a.speculation {
        cfg = cfg.with_speculation(SpeculationConfig::default());
    }
    if let Some((period, mbps)) = a.scanner {
        cfg = cfg.with_scanner(ScannerConfig {
            period: SimDuration::from_secs(period),
            bytes_per_sec: mbps << 20,
        });
    }
    if a.trace_chrome.is_some() || a.trace_jsonl.is_some() || a.xray {
        cfg.record_trace = true;
    }
    if a.telemetry {
        let mut tc = TelemetryConfig::default();
        if let Some(secs) = a.telemetry_interval {
            tc.interval = SimDuration::from_secs(secs);
        }
        cfg = cfg.with_telemetry(tc);
    }
    if a.self_profile {
        cfg = cfg.with_self_profile();
    }
    if let Some(epoch) = a.scarlett_epoch {
        cfg = cfg.with_scarlett(ScarlettConfig {
            epoch: SimDuration::from_secs(epoch),
            ..ScarlettConfig::default()
        });
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Load, parse, and validate a serialized [`FaultPlan`] against the
/// cluster the run will build: structural JSON errors, out-of-range node
/// or rack indices, overlapping availability windows (rack-outage and
/// partition windows expanded to the built racks' members), and
/// corruption targets outside the ingested namespace all surface as CLI
/// errors. The engine itself judges the plan ([`Engine::try_new`]).
fn load_fault_plan(path: &str, cfg: &SimConfig, wl: &Workload) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read fault plan {path}: {e}"))?;
    let plan = FaultPlan::from_json(&text)
        .map_err(|e| format!("invalid fault plan {path}: {e}"))?;
    Engine::try_new(cfg.clone().with_faults(plan.clone()), wl)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(plan)
}

fn build_workload(a: &Args) -> Result<dare_repro::workload::Workload, String> {
    if let Some(path) = &a.workload_in {
        return dare_repro::workload::io::load(std::path::Path::new(path));
    }
    let mut params = match a.workload.as_str() {
        "wl1" => SwimParams::wl1(),
        "wl2" => SwimParams::wl2(),
        other => return Err(format!("unknown workload {other} (wl1|wl2)")),
    };
    if let Some(jobs) = a.jobs {
        params.jobs = jobs;
    }
    Ok(synthesize(&a.workload, &params, a.seed))
}

fn usage() -> String {
    "usage: dare-sim [flags]\n\
     --cluster cct|ec2           evaluation environment (default cct)\n\
     --workload wl1|wl2          trace to synthesize (default wl1)\n\
     --jobs N                    override job count (default 500)\n\
     --scheduler fifo|fair|capacity   (default fifo)\n\
     --capacity-queues N         queues for the capacity scheduler (default 3)\n\
     --policy vanilla|lru|lfu|elephant   (default elephant)\n\
     --p F                       ElephantTrap sampling probability (default 0.3)\n\
     --threshold N               ElephantTrap aging threshold (default 1)\n\
     --budget F                  replication budget fraction (default 0.2)\n\
     --seed N                    experiment seed\n\
     --fail SECS:NODE            inject a node failure (repeatable)\n\
     --degrade SECS:NODE:FACTOR  inject a node slowdown (repeatable)\n\
     --fault-plan PATH           load a serialized fault plan (JSON; replaces --fail/--degrade)\n\
     --scanner PERIOD:MBPS       background block scanner (scrub period secs, budget MB/s)\n\
     --speculation               enable speculative execution\n\
     --scarlett-epoch SECS       run the proactive Scarlett baseline\n\
     --replay PATH               replay a saved workload instead of synthesizing\n\
     --save-workload PATH        export the synthesized workload before running\n\
     --trace PATH                record events, write a Chrome trace (Perfetto)\n\
     --trace-jsonl PATH          record events, write the JSONL event log\n\
     --xray                      attribute where job time went (critical path, what-ifs)\n\
     --xray-csv PATH             write the per-job attribution CSV (implies --xray)\n\
     --xray-json PATH            write the attribution report JSON (implies --xray)\n\
     --telemetry                 sample cluster state, print a summary table\n\
     --telemetry-interval SECS   sampling interval (default 5; implies --telemetry)\n\
     --telemetry-csv PATH        write the cluster time-series as CSV\n\
     --telemetry-jsonl PATH      write all telemetry series as JSONL\n\
     --self-profile              time event dispatch by subsystem (wall clock)\n\
     --csv / --csv-header        machine-readable one-row output\n\
     \n\
     dare-sim mc [flags]         bounded model checker (see `dare-sim mc --help`)\n\
     dare-sim chaos [flags]      chaos fuzzer with shrinking (see `dare-sim chaos --help`)\n\
     dare-sim xray TRACE.jsonl   attribute a saved trace (see `dare-sim xray --help`)\n\
     dare-sim experiments [ids...] [--seed N] [--seeds N]\n\
                                 regenerate paper figures/tables (see `dare-sim experiments --help`)"
        .into()
}

/// Parsed `xray` subcommand line.
#[derive(Debug, Clone, Default)]
struct XrayArgs {
    input: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    top: usize,
    validate: bool,
}

fn parse_xray_args(argv: &[String]) -> Result<XrayArgs, String> {
    let mut a = XrayArgs {
        top: 10,
        ..XrayArgs::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--csv" => a.csv = Some(value("--csv")?.clone()),
            "--json" => a.json = Some(value("--json")?.clone()),
            "--top" => a.top = parse_num(value("--top")?)?,
            "--validate" => a.validate = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            path => {
                if a.input.is_some() {
                    return Err(format!("unexpected extra argument {path}"));
                }
                a.input = Some(path.to_string());
            }
        }
    }
    if a.input.is_none() {
        return Err("missing input: pass a trace JSONL path (from --trace-jsonl)".into());
    }
    if let (Some(c), Some(j)) = (&a.csv, &a.json) {
        if c == j {
            return Err(format!(
                "--csv and --json would both write to {c}; pick distinct output paths"
            ));
        }
    }
    Ok(a)
}

fn usage_xray() -> String {
    "usage: dare-sim xray TRACE.jsonl [flags]\n\
     TRACE.jsonl          a trace saved by `dare-sim --trace-jsonl PATH`\n\
     --csv PATH           write the per-job attribution CSV\n\
     --json PATH          write the attribution report JSON\n\
     --top N              table rows to print (default 10)\n\
     --validate           check every task/flow span closes exactly once first"
        .into()
}

/// Run the `xray` subcommand; returns the process exit code.
fn run_xray(argv: &[String]) -> i32 {
    let args = match parse_xray_args(argv) {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                println!("{}", usage_xray());
                return 0;
            }
            eprintln!("error: {e}\n\n{}", usage_xray());
            return 2;
        }
    };
    let input = args.input.expect("parse_xray_args requires an input");
    let jsonl = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not read trace {input}: {e}");
            return 2;
        }
    };
    let parsed = match dare_repro::trace::from_jsonl(&jsonl) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {input} is not a valid trace JSONL: {e}");
            return 2;
        }
    };
    if args.validate {
        match parsed.validate_spans() {
            Ok(c) => println!(
                "spans balanced: {} task spans, {} flow spans closed exactly once",
                c.task_spans, c.flow_spans
            ),
            // Speculation-heavy or truncated traces can legitimately
            // orphan spans, so this is a warning, not a hard failure.
            Err(e) => eprintln!("warning: span check failed: {e}"),
        }
    }
    match export_xray(&parsed, args.csv.as_deref(), args.json.as_deref(), args.top, 1) {
        Ok(table) => {
            print!("{table}");
            0
        }
        Err(code) => code,
    }
}

/// Write one output file. A failure prints `error: could not write {what}
/// to {path}: ...` and gives exit code 2.
fn write_out(path: &str, what: &str, contents: impl AsRef<[u8]>) -> Result<(), i32> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("error: could not write {what} to {path}: {e}");
        2
    })
}

/// Attribute `trace`, check the report (a failure gives `check_exit`),
/// write its CSV and JSON where asked and return its table of the `top`
/// slowest jobs.
fn export_xray(
    trace: &dare_repro::trace::Trace,
    csv: Option<&str>,
    json: Option<&str>,
    top: usize,
    check_exit: i32,
) -> Result<String, i32> {
    use dare_repro::xray;
    let report = xray::analyze(trace);
    if let Err(e) = report.check() {
        eprintln!("error: xray invariant violated: {e}");
        return Err(check_exit);
    }
    if let Some(path) = csv {
        write_out(path, "xray CSV", xray::to_csv(&report))?;
        eprintln!("[dare-sim] xray CSV saved to {path}");
    }
    if let Some(path) = json {
        write_out(path, "xray JSON", xray::to_json(&report))?;
        eprintln!("[dare-sim] xray JSON saved to {path}");
    }
    Ok(xray::table(&report, top))
}

/// Parsed `mc` subcommand line.
#[derive(Debug, Clone)]
struct McArgs {
    cfg: dare_repro::mc::McConfig,
    out: Option<String>,
    replay: Option<String>,
    expect_violation: bool,
}

fn parse_mc_args(argv: &[String]) -> Result<McArgs, String> {
    use dare_repro::mc::{McConfig, Strategy};
    let mut cfg = McConfig::default();
    let mut out = None;
    let mut replay = None;
    let mut expect_violation = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--nodes" => cfg.nodes = parse_num(value("--nodes")?)?,
            "--blocks" => cfg.blocks = parse_num(value("--blocks")?)?,
            "--rf" => cfg.rf = parse_num(value("--rf")?)?,
            "--depth" => cfg.depth = parse_num(value("--depth")?)?,
            "--max-states" => cfg.max_states = parse_num(value("--max-states")?)?,
            "--strategy" => {
                cfg.strategy = match value("--strategy")?.as_str() {
                    "dfs" => Strategy::Dfs,
                    "bfs" => Strategy::Bfs,
                    other => return Err(format!("unknown strategy {other} (dfs|bfs)")),
                }
            }
            "--seed" => cfg.seed = parse_num(value("--seed")?)?,
            "--max-faults" => cfg.max_faults = parse_num(value("--max-faults")?)?,
            "--crash-secs" => {
                let v = value("--crash-secs")?;
                cfg.crash_down_secs = v
                    .split(',')
                    .map(parse_num)
                    .collect::<Result<Vec<u64>, _>>()
                    .map_err(|e| format!("--crash-secs: {e}"))?;
            }
            "--recovery-streams" => {
                cfg.max_recovery_streams = parse_num(value("--recovery-streams")?)?
            }
            "--no-corruption" => cfg.allow_corruption = false,
            "--seeded-bug" => cfg.seeded_bug = true,
            "--all-violations" => cfg.stop_on_violation = false,
            "--out" => out = Some(value("--out")?.clone()),
            "--replay" => replay = Some(value("--replay")?.clone()),
            "--expect-violation" => expect_violation = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cfg.validate()?;
    Ok(McArgs {
        cfg,
        out,
        replay,
        expect_violation,
    })
}

fn usage_mc() -> String {
    "usage: dare-sim mc [flags]\n\
     --nodes N            cluster size, 1..=6 (default 4)\n\
     --blocks N           input blocks, 1..=8 (default 4)\n\
     --rf N               replication factor (default 2)\n\
     --depth N            action-prefix depth bound (default 10)\n\
     --max-states N       unique-state budget (default 200000)\n\
     --strategy dfs|bfs   frontier order (default dfs)\n\
     --seed N             engine seed (default 0xDA4E)\n\
     --max-faults N       fault injections per path (default 2)\n\
     --crash-secs A,B     transient outage durations (default 5,45)\n\
     --recovery-streams N re-replication stream cap (default 4)\n\
     --no-corruption      availability faults only\n\
     --seeded-bug         arm the deliberate recovery-path mutation\n\
     --all-violations     keep exploring past the first violation\n\
     --out PATH           write the first counterexample JSONL here\n\
     --replay PATH        re-run a saved counterexample and diff it\n\
     --expect-violation   exit nonzero unless a violation is found"
        .into()
}

/// Run the `mc` subcommand; returns the process exit code.
fn run_mc(argv: &[String]) -> i32 {
    use dare_repro::mc;
    let args = match parse_mc_args(argv) {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                println!("{}", usage_mc());
                return 0;
            }
            eprintln!("error: {e}\n\n{}", usage_mc());
            return 2;
        }
    };

    if let Some(path) = &args.replay {
        let saved = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: could not read counterexample {path}: {e}");
                return 2;
            }
        };
        let outcome = match mc::replay_counterexample(&args.cfg, &saved) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        match &outcome.error {
            Some(e) => println!("violation reproduced: {e}"),
            None => println!("replay ran clean (violation did NOT reproduce)"),
        }
        match &outcome.diff {
            None => println!("replayed trace matches the saved counterexample"),
            Some(d) => println!("replayed trace DIVERGES from the saved counterexample:\n{d}"),
        }
        return if outcome.reproduced && outcome.diff.is_none() {
            0
        } else {
            1
        };
    }

    let t0 = std::time::Instant::now();
    let report = match mc::explore(&args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let wall = t0.elapsed().as_secs_f64();

    println!(
        "mc: nodes={} blocks={} rf={} depth={} strategy={:?} max_faults={} seeded_bug={}",
        args.cfg.nodes,
        args.cfg.blocks,
        args.cfg.rf,
        args.cfg.depth,
        args.cfg.strategy,
        args.cfg.max_faults,
        args.cfg.seeded_bug
    );
    println!(
        "explored {} states ({} unique visited, {} deduped) over {} transitions in {wall:.2}s",
        report.states_explored, report.states_visited, report.deduped, report.transitions
    );
    println!(
        "closed {} paths to quiescence; fingerprint digest {:#018x}{}",
        report.paths_closed,
        report.fingerprint_digest,
        if report.truncated {
            " (TRUNCATED at state budget)"
        } else {
            ""
        }
    );

    if report.violations.is_empty() {
        println!("no invariant violations found within the bound");
    } else {
        // A capped run is distinguishable from a small one: the total
        // count keeps climbing past the stored-artifact cap.
        println!(
            "{} violation(s) found, {} stored with counterexamples{}",
            report.violations_total,
            report.violations.len(),
            if report.violations_total > report.violations.len() as u64 {
                " (storage cap reached; later violations counted but not exported)"
            } else {
                ""
            }
        );
        for v in &report.violations {
            println!("\nVIOLATION: {}", v.error);
            let prefix: Vec<String> = v.actions.iter().map(|a| a.encode()).collect();
            println!(
                "  path ({} action(s), {}): {}",
                v.actions.len(),
                if v.during_closure {
                    "fired during deterministic closure"
                } else {
                    "fired on the prefix"
                },
                prefix.join(" ; ")
            );
        }
        if let Some(path) = &args.out {
            let v = &report.violations[0];
            if let Err(code) = write_out(path, "counterexample", &v.jsonl) {
                return code;
            }
            println!("counterexample JSONL saved to {path} (replay with: dare-sim mc --replay {path} ...same bounds...)");
        }
    }

    if args.expect_violation {
        if report.violations.is_empty() {
            eprintln!("error: --expect-violation set but the exploration found none");
            return 1;
        }
        return 0;
    }
    if report.violations.is_empty() {
        0
    } else {
        1
    }
}

/// Parsed `chaos` subcommand line.
#[derive(Debug, Clone)]
struct ChaosArgs {
    cfg: dare_repro::chaos::ChaosConfig,
    out: Option<String>,
    bench_json: Option<String>,
    replay: Option<String>,
    expect_violation: bool,
}

fn parse_chaos_args(argv: &[String]) -> Result<ChaosArgs, String> {
    use dare_repro::chaos::{Alphabet, ChaosConfig};
    let mut cfg = ChaosConfig::default();
    let mut out = None;
    let mut bench_json = None;
    let mut replay = None;
    let mut expect_violation = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--nodes" => cfg.nodes = parse_num(value("--nodes")?)?,
            "--horizon" => cfg.horizon_secs = parse_num(value("--horizon")?)?,
            "--density" => cfg.density = parse_num(value("--density")?)?,
            "--alphabet" => cfg.alphabet = Alphabet::parse(value("--alphabet")?)?,
            "--seed" => cfg.seed = parse_num(value("--seed")?)?,
            "--budget-runs" => cfg.budget_runs = parse_num(value("--budget-runs")?)?,
            "--budget-secs" => cfg.budget_secs = parse_num(value("--budget-secs")?)?,
            "--threads" => cfg.threads = parse_num(value("--threads")?)?,
            "--no-shrink" => cfg.shrink = false,
            "--seeded-bug" => cfg.seeded_bug = true,
            "--out" => out = Some(value("--out")?.clone()),
            "--bench-json" => bench_json = Some(value("--bench-json")?.clone()),
            "--replay" => replay = Some(value("--replay")?.clone()),
            "--expect-violation" => expect_violation = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cfg.validate()?;
    Ok(ChaosArgs {
        cfg,
        out,
        bench_json,
        replay,
        expect_violation,
    })
}

fn usage_chaos() -> String {
    "usage: dare-sim chaos [flags]\n\
     --nodes N            fuzzed cluster size, 8..=1000 (default 50)\n\
     --horizon SECS       fault-injection horizon (default 240)\n\
     --density F          mean fault events per schedule (default 5)\n\
     --alphabet LIST      all, or comma list of kill|crash|rack|slowdown|corrupt|partition|gray\n\
     --seed N             campaign seed (default 0xc4a05fa7)\n\
     --budget-runs N      schedules to try (default 256)\n\
     --budget-secs N      wall-clock cap, 0 = off (checked between batches)\n\
     --threads N          fuzz workers, 0 = all cores (verdicts are thread-invariant)\n\
     --no-shrink          skip delta-debugging the failing schedule\n\
     --seeded-bug         arm the deliberate recovery-path mutation (pipeline check)\n\
     --out PATH           write the counterexample here (plan JSON goes to PATH.plan.json)\n\
     --bench-json PATH    write the campaign stats JSON (BENCH_chaos format)\n\
     --replay PATH        re-run a saved counterexample and diff its trace\n\
     --expect-violation   exit nonzero unless a violation is found"
        .into()
}

/// Run the `chaos` subcommand; returns the process exit code.
fn run_chaos(argv: &[String]) -> i32 {
    use dare_repro::chaos;
    let args = match parse_chaos_args(argv) {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                println!("{}", usage_chaos());
                return 0;
            }
            eprintln!("error: {e}\n\n{}", usage_chaos());
            return 2;
        }
    };

    if let Some(path) = &args.replay {
        let saved = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: could not read counterexample {path}: {e}");
                return 2;
            }
        };
        let replay = match chaos::replay_counterexample(&args.cfg, &saved) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        match (&replay.reproduced, &replay.failure_key) {
            (true, Some(k)) => println!("violation reproduced (failure key {k})"),
            (true, None) => println!("violation reproduced"),
            (false, _) => println!("replay ran clean (violation did NOT reproduce)"),
        }
        if replay.failure_key != replay.expected_key {
            println!(
                "failure key mismatch: replay {:?}, counterexample recorded {:?}",
                replay.failure_key, replay.expected_key
            );
        }
        match &replay.diff {
            None => println!("replayed trace matches the saved counterexample"),
            Some(d) => println!("replayed trace DIVERGES from the saved counterexample:\n{d}"),
        }
        return if replay.verified() { 0 } else { 1 };
    }

    let report = match chaos::fuzz(&args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    println!(
        "chaos: nodes={} horizon={}s density={} alphabet={} seed={:#x} seeded_bug={}",
        args.cfg.nodes,
        args.cfg.horizon_secs,
        args.cfg.density,
        args.cfg.alphabet.encode(),
        args.cfg.seed,
        args.cfg.seeded_bug
    );
    println!(
        "fuzzed {} schedule(s), {} engine events in {:.2}s ({:.0} events/s){}",
        report.runs,
        report.steps,
        report.wall_secs,
        report.events_per_sec,
        if report.stopped_on_budget_secs {
            " — stopped on wall-clock budget"
        } else {
            ""
        }
    );

    if let Some(path) = &args.bench_json {
        if let Err(code) = write_out(path, "bench JSON", chaos::bench_json(&args.cfg, &report)) {
            return code;
        }
        println!("campaign stats saved to {path}");
    }

    match &report.violation {
        None => {
            println!("no invariant violations found within the budget");
            if args.expect_violation {
                eprintln!("error: --expect-violation set but the campaign found none");
                return 1;
            }
            0
        }
        Some(v) => {
            println!("\nVIOLATION (run {}, failure key {}): {}", v.run, v.key, v.error);
            println!(
                "shrunk {} -> {} fault event(s) in {} probe(s); replay {}",
                v.shrink.original_events,
                v.shrink.minimal_events,
                v.shrink.probes,
                if v.replay_verified {
                    "verified (same failure, byte-identical trace)".to_string()
                } else {
                    format!("DIVERGED: {:?}", v.replay_diff)
                }
            );
            if let Some(out) = &args.out {
                let plan_path = format!("{out}.plan.json");
                let written = write_out(out, "counterexample", &v.counterexample)
                    .and_then(|()| write_out(&plan_path, "fault plan", &v.plan_json));
                if let Err(code) = written {
                    return code;
                }
                println!(
                    "counterexample saved to {out} (replay with: dare-sim chaos --replay {out} ...same knobs...)"
                );
                println!(
                    "minimal fault plan saved to {plan_path} (replay with: dare-sim --fault-plan {plan_path})"
                );
            }
            if args.expect_violation {
                if !v.replay_verified {
                    eprintln!("error: violation found but replay verification failed");
                    return 1;
                }
                0
            } else {
                1
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("mc") => run_mc(&argv[1..]),
        Some("chaos") => run_chaos(&argv[1..]),
        Some("xray") => run_xray(&argv[1..]),
        // Forward to the dare-bench experiment driver, so one command
        // regenerates every figure/table: `dare-sim experiments -- all
        // --seeds 5`. (cli::run skips a leading literal `--` itself.)
        Some("experiments") => dare_repro::bench::cli::run(&argv[1..]),
        _ => match run_sim(&argv) {
            Ok(()) => return,
            Err(code) => code,
        },
    };
    std::process::exit(code);
}

/// Run one simulation from the command line and print its report. `Err`
/// carries the exit code.
fn run_sim(argv: &[String]) -> Result<(), i32> {
    // A bad command line or input exits 2.
    let fail = |e: String| {
        eprintln!("error: {e}");
        2
    };
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{}", usage());
            return Ok(());
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return Err(2);
        }
    };
    let mut cfg = build_config(&args).map_err(fail)?;
    let wl = build_workload(&args).map_err(fail)?;
    if let Some(path) = &args.fault_plan {
        let plan = load_fault_plan(path, &cfg, &wl).map_err(fail)?;
        cfg = cfg.with_faults(plan);
    }
    if let Some(path) = &args.workload_out {
        dare_repro::workload::io::save(&wl, std::path::Path::new(path))
            .map_err(|e| fail(format!("could not save workload to {path}: {e}")))?;
        eprintln!("[dare-sim] workload saved to {path}");
    }

    let t0 = std::time::Instant::now();
    let r = mapred::run(cfg, &wl);
    let wall = t0.elapsed().as_secs_f64();

    if let Some(trace) = &r.trace {
        if let Some(path) = &args.trace_chrome {
            write_out(path, "Chrome trace", dare_repro::trace::to_chrome(trace))?;
            eprintln!("[dare-sim] Chrome trace saved to {path} (open at ui.perfetto.dev)");
        }
        if let Some(path) = &args.trace_jsonl {
            write_out(path, "trace JSONL", dare_repro::trace::to_jsonl(trace))?;
            eprintln!("[dare-sim] trace JSONL saved to {path}");
        }
        eprintln!("[dare-sim] {}", trace.summary());
        if args.xray {
            let (csv, json) = (args.xray_csv.as_deref(), args.xray_json.as_deref());
            eprint!("{}", export_xray(trace, csv, json, 10, 2)?);
        }
    }

    if let Some(telemetry) = &r.telemetry {
        if let Some(path) = &args.telemetry_csv {
            write_out(path, "telemetry CSV", telemetry.cluster_csv())?;
            eprintln!("[dare-sim] telemetry CSV saved to {path}");
        }
        if let Some(path) = &args.telemetry_jsonl {
            write_out(path, "telemetry JSONL", telemetry.to_jsonl())?;
            eprintln!("[dare-sim] telemetry JSONL saved to {path}");
        }
        eprintln!("[dare-sim] telemetry: {}", telemetry.summary());
    }

    if let Some(profile) = &r.profile {
        eprintln!("[dare-sim] profile: {}", profile.summary());
    }

    if args.csv {
        if args.csv_header {
            println!(
                "cluster,workload,scheduler,policy,p,budget,seed,job_locality,task_locality,\
                 gmtt_s,slowdown,blocks_per_job,replicas,evictions,reexecuted,spec_launches,\
                 sched_offers,sched_probes,flow_rerates"
            );
        }
        println!(
            "{},{},{},{},{},{},{},{:.4},{:.4},{:.2},{:.3},{:.3},{},{},{},{},{},{},{}",
            args.cluster,
            args.workload,
            args.scheduler,
            args.policy,
            args.p,
            args.budget,
            args.seed,
            r.run.job_locality,
            r.run.locality,
            r.run.gmtt_secs,
            r.run.mean_slowdown,
            r.blocks_per_job,
            r.replicas_created,
            r.evictions,
            r.faults.tasks_retried,
            r.speculative_launches,
            r.sched_offers,
            r.sched_probes,
            r.flow_rerates,
        );
        return Ok(());
    }

    println!(
        "cluster={} workload={} ({} jobs) scheduler={} policy={}",
        args.cluster,
        wl.name,
        wl.num_jobs(),
        args.scheduler,
        args.policy
    );
    println!("simulated in {wall:.2}s wall clock\n");
    println!("job data locality   {:>8.1}%", r.run.job_locality * 100.0);
    println!("task data locality  {:>8.1}%", r.run.locality * 100.0);
    println!("geo-mean turnaround {:>8.1}s", r.run.gmtt_secs);
    println!("mean slowdown       {:>8.2}", r.run.mean_slowdown);
    println!("makespan            {:>8.1}s", r.run.makespan_secs);
    println!("replicas created    {:>8}", r.replicas_created);
    println!("replica evictions   {:>8}", r.evictions);
    println!("blocks per job      {:>8.2}", r.blocks_per_job);
    println!(
        "placement cv        {:>8.2} -> {:.2}",
        r.cv_before, r.cv_after
    );
    println!("scheduler offers    {:>8}", r.sched_offers);
    println!("scheduler probes    {:>8}", r.sched_probes);
    println!("flow re-rates       {:>8}", r.flow_rerates);
    if !args.failures.is_empty() {
        println!("re-executed tasks   {:>8}", r.faults.tasks_retried);
    }
    if args.speculation {
        println!(
            "speculation         {:>8} launched, {} won",
            r.speculative_launches, r.speculative_wins
        );
    }
    if let Some(p) = r.proactive {
        println!(
            "scarlett            {:>8} replicas, {:.1} GB pushed, {} aged out",
            p.replicas_created,
            p.bytes_moved as f64 / (1u64 << 30) as f64,
            p.evictions
        );
    }
    if let Some(telemetry) = &r.telemetry {
        println!("\ncluster state over time:");
        print!("{}", telemetry.summary_table(12));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let a = parse_args(&[]).expect("empty argv is valid");
        assert_eq!(a.cluster, "cct");
        assert_eq!(a.policy, "elephant");
        assert!(build_config(&a).is_ok());
        assert!(build_workload(&a).is_ok());
    }

    #[test]
    fn full_flag_set_parses() {
        let a = parse_args(&argv(
            "--cluster ec2 --workload wl2 --jobs 50 --scheduler fair --policy lru \
             --budget 0.4 --seed 9 --fail 60:3 --fail 120:9 --speculation",
        ))
        .expect("valid argv");
        assert_eq!(a.cluster, "ec2");
        assert_eq!(a.jobs, Some(50));
        assert_eq!(a.failures, vec![(60, 3), (120, 9)]);
        assert!(a.speculation);
        let cfg = build_config(&a).expect("valid config");
        assert_eq!(cfg.profile.nodes, 99);
        assert!(cfg.speculation.is_some());
        let wl = build_workload(&a).expect("valid workload");
        assert_eq!(wl.num_jobs(), 50);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("--p 1.5")).is_err());
        assert!(parse_args(&argv("--budget -0.1")).is_err());
        assert!(parse_args(&argv("--fail 60")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        let a = parse_args(&argv("--policy nope")).expect("parses");
        assert!(build_config(&a).is_err());
        let a = parse_args(&argv("--cluster moon")).expect("parses");
        assert!(build_config(&a).is_err());
        let a = parse_args(&argv("--workload wl9")).expect("parses");
        assert!(build_workload(&a).is_err());
        assert!(parse_args(&argv("--jobs 0")).is_err());
        for bad in [
            "--fail 60:99",
            "--fail 60:3 --fail 90:3",
            "--degrade 30:2:0.5",
            "--degrade 30:2:1e9",
            "--scheduler capacity --capacity-queues 0",
            "--policy vanilla --scarlett-epoch 0",
        ] {
            let a = parse_args(&argv(bad)).expect("parses");
            assert!(build_config(&a).is_err(), "{bad}");
        }
    }

    #[test]
    fn degrade_and_capacity_flags() {
        let a = parse_args(&argv(
            "--scheduler capacity --capacity-queues 4 --degrade 30:2:5.0",
        ))
        .expect("valid");
        let cfg = build_config(&a).expect("valid");
        assert_eq!(cfg.scheduler, SchedulerKind::Capacity(4));
        assert_eq!(
            cfg.faults.events,
            vec![mapred::FaultEvent::Slowdown {
                at_secs: 30,
                node: 2,
                factor: 5.0,
                duration_secs: None,
            }]
        );
        assert!(parse_args(&argv("--degrade 30:2")).is_err());
    }

    #[test]
    fn trace_flags_enable_recording() {
        let a = parse_args(&argv("--jobs 5")).expect("valid");
        assert!(!build_config(&a).expect("valid").record_trace);

        let a = parse_args(&argv("--trace out.json")).expect("valid");
        assert_eq!(a.trace_chrome.as_deref(), Some("out.json"));
        assert!(build_config(&a).expect("valid").record_trace);

        let a = parse_args(&argv("--trace-jsonl out.jsonl")).expect("valid");
        assert_eq!(a.trace_jsonl.as_deref(), Some("out.jsonl"));
        assert!(build_config(&a).expect("valid").record_trace);

        // The workload replay flags were renamed; the old spellings moved.
        let a = parse_args(&argv("--replay wl.json --save-workload out.wl")).expect("valid");
        assert_eq!(a.workload_in.as_deref(), Some("wl.json"));
        assert_eq!(a.workload_out.as_deref(), Some("out.wl"));
        assert!(parse_args(&argv("--save-trace x")).is_err());
    }

    #[test]
    fn xray_flags_enable_recording() {
        let a = parse_args(&argv("--jobs 5")).expect("valid");
        assert!(!a.xray);
        assert!(!build_config(&a).expect("valid").record_trace);

        let a = parse_args(&argv("--xray")).expect("valid");
        assert!(a.xray);
        assert!(build_config(&a).expect("valid").record_trace);

        let a = parse_args(&argv("--xray-csv x.csv --xray-json x.json")).expect("valid");
        assert!(a.xray, "output flags imply --xray");
        assert_eq!(a.xray_csv.as_deref(), Some("x.csv"));
        assert_eq!(a.xray_json.as_deref(), Some("x.json"));
        assert!(build_config(&a).expect("valid").record_trace);

        // Composable with the other observability flags in one run.
        let a = parse_args(&argv(
            "--trace-jsonl t.jsonl --telemetry-csv t.csv --xray-csv x.csv",
        ))
        .expect("valid");
        assert!(a.xray && a.telemetry && a.trace_jsonl.is_some());
    }

    #[test]
    fn output_flags_reject_shared_paths() {
        // Any two output flags aimed at one file used to overwrite it
        // silently; now the collision is a parse error.
        let err = parse_args(&argv("--trace out.json --trace-jsonl out.json"))
            .expect_err("collision rejected");
        assert!(err.contains("out.json"), "names the path: {err}");
        assert!(err.contains("--trace") && err.contains("--trace-jsonl"));
        assert!(parse_args(&argv("--xray-csv a.csv --telemetry-csv a.csv")).is_err());
        assert!(parse_args(&argv("--save-workload w --xray-json w")).is_err());
        // Distinct paths stay valid.
        assert!(parse_args(&argv("--trace a.json --trace-jsonl b.jsonl")).is_ok());
    }

    #[test]
    fn xray_subcommand_flags_parse() {
        let a = parse_xray_args(&argv(
            "trace.jsonl --csv out.csv --json out.json --top 3 --validate",
        ))
        .expect("valid xray argv");
        assert_eq!(a.input.as_deref(), Some("trace.jsonl"));
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.top, 3);
        assert!(a.validate);

        assert!(parse_xray_args(&[]).is_err(), "input required");
        assert!(parse_xray_args(&argv("a.jsonl b.jsonl")).is_err());
        assert!(parse_xray_args(&argv("a.jsonl --bogus")).is_err());
        assert!(parse_xray_args(&argv("a.jsonl --top x")).is_err());
        assert!(parse_xray_args(&argv("a.jsonl --csv o --json o")).is_err());
    }

    #[test]
    fn telemetry_flags_enable_sampling() {
        let a = parse_args(&argv("--jobs 5")).expect("valid");
        assert!(build_config(&a).expect("valid").telemetry.is_none());

        let a = parse_args(&argv("--telemetry")).expect("valid");
        let cfg = build_config(&a).expect("valid");
        assert_eq!(
            cfg.telemetry.expect("sampling on").interval,
            SimDuration::from_secs(5),
            "default interval"
        );

        let a = parse_args(&argv("--telemetry-interval 30")).expect("valid");
        assert!(a.telemetry, "interval flag implies --telemetry");
        let cfg = build_config(&a).expect("valid");
        assert_eq!(
            cfg.telemetry.expect("sampling on").interval,
            SimDuration::from_secs(30)
        );

        let a = parse_args(&argv("--telemetry-csv t.csv --telemetry-jsonl t.jsonl"))
            .expect("valid");
        assert!(a.telemetry, "output flags imply --telemetry");
        assert_eq!(a.telemetry_csv.as_deref(), Some("t.csv"));
        assert_eq!(a.telemetry_jsonl.as_deref(), Some("t.jsonl"));

        assert!(parse_args(&argv("--telemetry-interval 0")).is_err());
        assert!(parse_args(&argv("--telemetry-interval x")).is_err());
    }

    #[test]
    fn scanner_flag_builds_config() {
        let a = parse_args(&argv("--scanner 45:8")).expect("valid");
        let cfg = build_config(&a).expect("valid");
        let sc = cfg.scanner.expect("scanner enabled");
        assert_eq!(sc.period, SimDuration::from_secs(45));
        assert_eq!(sc.bytes_per_sec, 8 << 20);

        let plain = parse_args(&argv("--jobs 5")).expect("valid");
        assert!(build_config(&plain).expect("valid").scanner.is_none());

        assert!(parse_args(&argv("--scanner 45")).is_err());
        assert!(parse_args(&argv("--scanner 0:8")).is_err());
        assert!(parse_args(&argv("--scanner 45:0")).is_err());
        assert!(parse_args(&argv("--scanner x:8")).is_err());
    }

    #[test]
    fn fault_plan_flag_round_trips_and_validates() {
        let dir = std::env::temp_dir();
        let a = parse_args(&argv("--jobs 5")).expect("valid");
        let cfg = build_config(&a).expect("valid");
        let wl = build_workload(&a).expect("valid");

        // A plan the engine will accept round-trips through the file.
        let mut plan = mapred::FaultPlan::default();
        plan.events.push(mapred::FaultEvent::Crash {
            at_secs: 30,
            node: 3,
            down_secs: 60,
        });
        plan.events.push(mapred::FaultEvent::CorruptReplica {
            at_secs: 10,
            node: 1,
            block: 0,
        });
        let good = dir.join("dare-sim-test-plan-good.json");
        std::fs::write(&good, plan.to_json()).expect("write plan");
        let loaded =
            load_fault_plan(good.to_str().unwrap(), &cfg, &wl).expect("valid plan loads");
        assert_eq!(loaded, plan, "JSON round-trip is exact");

        // Structural, topology, and namespace failures all become errors.
        let missing = dir.join("dare-sim-test-plan-missing.json");
        let _ = std::fs::remove_file(&missing);
        assert!(load_fault_plan(missing.to_str().unwrap(), &cfg, &wl)
            .is_err_and(|e| e.contains("could not read")));

        let garbage = dir.join("dare-sim-test-plan-garbage.json");
        std::fs::write(&garbage, "{not json").expect("write");
        assert!(load_fault_plan(garbage.to_str().unwrap(), &cfg, &wl)
            .is_err_and(|e| e.contains("invalid fault plan")));

        let mut bad = mapred::FaultPlan::default();
        bad.events.push(mapred::FaultEvent::Crash {
            at_secs: 30,
            node: 10_000,
            down_secs: 60,
        });
        let bad_node = dir.join("dare-sim-test-plan-badnode.json");
        std::fs::write(&bad_node, bad.to_json()).expect("write");
        assert!(load_fault_plan(bad_node.to_str().unwrap(), &cfg, &wl)
            .is_err_and(|e| e.contains("node")));

        let mut rot = mapred::FaultPlan::default();
        rot.events.push(mapred::FaultEvent::CorruptReplica {
            at_secs: 10,
            node: 1,
            block: u64::MAX,
        });
        let bad_block = dir.join("dare-sim-test-plan-badblock.json");
        std::fs::write(&bad_block, rot.to_json()).expect("write");
        assert!(load_fault_plan(bad_block.to_str().unwrap(), &cfg, &wl)
            .is_err_and(|e| e.contains("block")));

        // Overlapping availability windows are caught before the engine.
        let mut overlap = mapred::FaultPlan::default();
        overlap.events.push(mapred::FaultEvent::Crash {
            at_secs: 30,
            node: 3,
            down_secs: 60,
        });
        overlap.events.push(mapred::FaultEvent::Crash {
            at_secs: 50,
            node: 3,
            down_secs: 10,
        });
        let overlapping = dir.join("dare-sim-test-plan-overlap.json");
        std::fs::write(&overlapping, overlap.to_json()).expect("write");
        assert!(load_fault_plan(overlapping.to_str().unwrap(), &cfg, &wl).is_err());

        for f in [good, garbage, bad_node, bad_block, overlapping] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn fault_plan_excludes_inline_fault_flags() {
        assert!(parse_args(&argv("--fault-plan p.json --fail 60:3")).is_err());
        assert!(parse_args(&argv("--fault-plan p.json --degrade 30:2:5.0")).is_err());
        let a = parse_args(&argv("--fault-plan p.json")).expect("alone is fine");
        assert_eq!(a.fault_plan.as_deref(), Some("p.json"));
    }

    #[test]
    fn mc_flags_parse() {
        use dare_repro::mc::Strategy;
        let a = parse_mc_args(&argv(
            "--nodes 3 --blocks 2 --rf 2 --depth 6 --strategy bfs --max-faults 1 \
             --crash-secs 31,45 --recovery-streams 1 --no-corruption --seeded-bug \
             --out ce.jsonl --expect-violation",
        ))
        .expect("valid mc argv");
        assert_eq!(a.cfg.nodes, 3);
        assert_eq!(a.cfg.blocks, 2);
        assert_eq!(a.cfg.depth, 6);
        assert_eq!(a.cfg.strategy, Strategy::Bfs);
        assert_eq!(a.cfg.crash_down_secs, vec![31, 45]);
        assert_eq!(a.cfg.max_recovery_streams, 1);
        assert!(!a.cfg.allow_corruption);
        assert!(a.cfg.seeded_bug);
        assert_eq!(a.out.as_deref(), Some("ce.jsonl"));
        assert!(a.expect_violation);

        assert!(parse_mc_args(&argv("--nodes 9")).is_err(), "bounds checked");
        assert!(parse_mc_args(&argv("--strategy astar")).is_err());
        assert!(parse_mc_args(&argv("--bogus 1")).is_err());
        assert!(parse_mc_args(&argv("--crash-secs 5,x")).is_err());
    }

    #[test]
    fn chaos_flags_parse() {
        let a = parse_chaos_args(&argv(
            "--nodes 100 --horizon 300 --density 8 --alphabet crash,partition,gray \
             --seed 7 --budget-runs 500 --budget-secs 60 --threads 4 --no-shrink \
             --seeded-bug --out ce.jsonl --bench-json b.json --expect-violation",
        ))
        .expect("valid chaos argv");
        assert_eq!(a.cfg.nodes, 100);
        assert_eq!(a.cfg.horizon_secs, 300);
        assert_eq!(a.cfg.density, 8.0);
        assert_eq!(a.cfg.alphabet.encode(), "crash,partition,gray");
        assert_eq!(a.cfg.seed, 7);
        assert_eq!(a.cfg.budget_runs, 500);
        assert_eq!(a.cfg.budget_secs, 60);
        assert_eq!(a.cfg.threads, 4);
        assert!(!a.cfg.shrink);
        assert!(a.cfg.seeded_bug);
        assert_eq!(a.out.as_deref(), Some("ce.jsonl"));
        assert_eq!(a.bench_json.as_deref(), Some("b.json"));
        assert!(a.expect_violation);

        let d = parse_chaos_args(&argv("")).expect("defaults parse");
        assert_eq!(d.cfg.nodes, 50);
        assert!(d.cfg.shrink);
        assert!(d.replay.is_none());

        assert!(parse_chaos_args(&argv("--nodes 4")).is_err(), "bounds checked");
        assert!(parse_chaos_args(&argv("--alphabet warp")).is_err());
        assert!(parse_chaos_args(&argv("--bogus 1")).is_err());
        assert!(parse_chaos_args(&argv("--density 0")).is_err());
    }

    #[test]
    fn scarlett_flag_builds_config() {
        let a = parse_args(&argv("--policy vanilla --scarlett-epoch 45")).expect("valid");
        let cfg = build_config(&a).expect("valid");
        let sc = cfg.scarlett.expect("scarlett enabled");
        assert_eq!(sc.epoch, SimDuration::from_secs(45));
    }
}
