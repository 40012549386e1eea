//! One round of a workload: its chaos campaigns and every simulation run
//! once, with host time split into set-up (`Engine::new`) and everything
//! else, and the program's own counters collected where the mode asks.

use crate::calib::{Calib, Speed};
use crate::cases::Case;
use crate::spans::Spans;
use dare_chaos::{fuzz, sample_plan, ChaosConfig, ChaosEnv};
use dare_dfs::{DefaultPlacement, Dfs};
use dare_mapred::{Engine, SimConfig, SimResult, StepOutcome};
use dare_net::flow::FlowSim;
use dare_simcore::{DetRng, SimTime};
use dare_telemetry::{ProfileReport, Subsystem};
use dare_workload::Workload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

const GB: f64 = (1u64 << 30) as f64;
const MB: f64 = (1u64 << 20) as f64;

/// How a round observes the program.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload as defined; what the untraced run measures.
    Timed,
    /// Trace recording and telemetry off, so nothing is exported or
    /// analysed: the unobserved reference of a traced run.
    Plain,
    /// Trace recording forced on, or off, for every simulation.
    Trace(bool),
    /// Every observer on: trace, self-profile, the set-up phases repeated
    /// from outside, and the exports and xray analysis of every trace.
    Observed,
    /// Only the reference simulations (which every other mode skips).
    Reference,
}

/// The deterministic outcome of one simulation: equal across rounds of
/// the same seed, whatever the mode.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOut {
    pub dfs_fingerprint: u64,
    pub logical_events: u64,
    pub jobs: usize,
    pub maps: u64,
    pub node_local: u64,
    pub gmtt_secs: f64,
}

#[derive(Default)]
pub struct Round {
    pub wall_s: f64,
    pub setup_s: f64,
    /// Host seconds inside `try_run`, summed over the simulations.
    pub loop_s: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// One entry per simulation; `None` when it failed or the round
    /// skipped it.
    pub outs: Vec<Option<SimOut>>,
    /// Per-layer values by metric name (times and counts).
    pub layers: BTreeMap<&'static str, f64>,
    /// The host's speed during the round, in a calibrated round.
    pub speed: Speed,
}

impl Round {
    /// Host seconds of the round outside set-up and calibration.
    pub fn run_s(&self) -> f64 {
        self.wall_s - self.setup_s - self.speed.sample_s
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.layers.entry(name).or_insert(0.0);
        *e = e.max(v);
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run one round. With `calib`, reference samples are taken between the
/// round's items (each campaign, each simulation, each simulation's
/// checks and exports) to follow the host's speed.
pub fn round(case: &Case, mode: Mode, spans: &mut Spans, mut calib: Option<&mut Calib>) -> Round {
    let mut r = Round::default();
    let wall = spans.begin("round");
    if mode != Mode::Reference {
        for cfg in &case.campaigns {
            let open = spans.begin("campaign");
            campaign(cfg, mode, spans, &mut r);
            let secs = spans.end(open);
            if let Some(c) = calib.as_deref_mut() {
                c.after(secs, &mut r.speed);
            }
        }
    }
    // Results stay in memory until every simulation of the round has run,
    // and the traces are exported and analysed after that, as a batch.
    let mut results = Vec::with_capacity(case.sims.len());
    for sim in &case.sims {
        if sim.reference != (mode == Mode::Reference) {
            results.push(None);
            continue;
        }
        let mut cfg = sim.cfg.clone();
        match mode {
            Mode::Timed | Mode::Reference => {}
            Mode::Plain => {
                cfg.record_trace = false;
                cfg.telemetry = None;
            }
            Mode::Trace(on) => cfg.record_trace = on,
            Mode::Observed => {
                cfg.record_trace = true;
                cfg.self_profile = true;
            }
        }
        let wl = &case.inputs[sim.input];
        if mode == Mode::Observed {
            setup_from_outside(&cfg, wl, spans, &mut r);
        }
        r.attempted += 1;
        let open = spans.begin("engine.new");
        let engine = catch_unwind(AssertUnwindSafe(|| Engine::new(cfg, wl)));
        let setup_s = spans.end(open);
        r.setup_s += setup_s;
        let open = spans.begin("engine.run");
        let result = engine.map(|e| catch_unwind(AssertUnwindSafe(|| e.try_run())));
        let loop_s = spans.end(open);
        r.loop_s += loop_s;
        if let Some(c) = calib.as_deref_mut() {
            c.after(setup_s + loop_s, &mut r.speed);
        }
        results.push(Some(match result {
            Err(p) | Ok(Err(p)) => Err(format!("panicked: {}", panic_text(p))),
            Ok(Ok(Err(e))) => Err(format!("engine error: {e}")),
            Ok(Ok(Ok(res))) => Ok(res),
        }));
    }
    for (i, (sim, result)) in case.sims.iter().zip(results).enumerate() {
        let Some(result) = result else {
            r.outs.push(None);
            continue;
        };
        let open = spans.begin("checks");
        let checked = result.and_then(|res| {
            if res.run.failed_jobs > 0 && sim.cfg.faults.is_empty() {
                return Err(format!(
                    "{} jobs failed without faults",
                    res.run.failed_jobs
                ));
            }
            if sim.export || mode == Mode::Observed {
                observe(&res, spans, &mut r)?;
            }
            Ok(res)
        });
        match checked {
            Ok(res) => {
                if mode == Mode::Observed {
                    program_counters(&res, &mut r);
                }
                r.outs.push(Some(outcome(&res)));
            }
            Err(e) => {
                r.failures.push(format!("sim {i}: {e}"));
                r.outs.push(None);
            }
        }
        let secs = spans.end(open);
        if let Some(c) = calib.as_deref_mut() {
            c.after(secs, &mut r.speed);
        }
    }
    if let Some(c) = calib {
        c.flush(&mut r.speed);
    }
    r.wall_s = spans.end(wall);
    for (name, secs) in spans.take_totals() {
        if let Some(&(_, metric)) = SPAN_METRICS.iter().find(|(span, _)| *span == name) {
            r.add(metric, secs);
        }
    }
    r
}

/// Spans whose summed host time is a per-layer metric.
const SPAN_METRICS: [(&str, &str); 6] = [
    ("net.topology", "net.topology_s"),
    ("dfs.ingest", "dfs.ingest_s"),
    ("trace.to_jsonl", "trace.to_jsonl_s"),
    ("trace.from_jsonl", "trace.from_jsonl_s"),
    ("telemetry.to_jsonl", "telemetry.to_jsonl_s"),
    ("xray.analyze", "xray.analyze_s"),
];

fn outcome(res: &SimResult) -> SimOut {
    SimOut {
        dfs_fingerprint: res.dfs_fingerprint,
        logical_events: res.logical_events,
        jobs: res.run.jobs,
        maps: res.run.maps,
        node_local: res
            .outcomes
            .iter()
            .filter(|o| o.status == dare_metrics::JobStatus::Completed)
            .map(|o| o.node_local as u64)
            .sum(),
        gmtt_secs: res.run.gmtt_secs,
    }
}

/// The engine's set-up phases, repeated by the benchmark through the
/// same public calls and random substreams `Engine::new` uses, so their
/// host time can be read apart from the rest of set-up.
fn setup_from_outside(cfg: &SimConfig, wl: &Workload, spans: &mut Spans, r: &mut Round) {
    let root = DetRng::new(cfg.seed);
    let (topo, _) = spans.time("net.topology", || {
        let topo = cfg.profile.build_topology(&mut root.substream("topology"));
        let mut cap_rng = root.substream("capacities");
        let _disk = cfg.profile.sample_disk_capacities(&mut cap_rng);
        let flows = FlowSim::new(
            cfg.profile.sample_nic_capacities(&mut cap_rng),
            cfg.profile.oversub,
        );
        std::hint::black_box(flows);
        topo
    });
    let (dfs, _) = spans.time("dfs.ingest", || {
        let mut dfs = Dfs::new(cfg.dfs.clone(), topo);
        let mut rng = root.substream("ingest");
        for f in &wl.files {
            dfs.create_file(
                SimTime::ZERO,
                f.name.clone(),
                f.size_bytes,
                None,
                &DefaultPlacement,
                &mut rng,
                false,
            );
        }
        dfs
    });
    r.add("dfs.blocks", dfs.namenode().num_blocks() as f64);
}

/// The observation path: xray on the live trace, JSONL export, parse
/// back, re-analyse, and telemetry export. The round trip must reproduce
/// the live xray CSV byte for byte.
fn observe(res: &SimResult, spans: &mut Spans, r: &mut Round) -> Result<(), String> {
    if let Some(trace) = &res.trace {
        let (live, _) = spans.time("xray.analyze", || dare_xray::analyze(trace));
        live.check().map_err(|e| format!("xray check: {e}"))?;
        let (jsonl, _) = spans.time("trace.to_jsonl", || dare_trace::to_jsonl(trace));
        let (back, _) = spans.time("trace.from_jsonl", || dare_trace::from_jsonl(&jsonl));
        let back = back.map_err(|e| format!("trace JSONL does not parse back: {e}"))?;
        let (again, _) = spans.time("xray.analyze", || dare_xray::analyze(&back));
        if dare_xray::to_csv(&again) != dare_xray::to_csv(&live) {
            return Err("xray of the JSONL round trip differs from the live xray".into());
        }
        r.add("trace.records", trace.records().len() as f64);
        r.add("trace.jsonl_mb", jsonl.len() as f64 / MB);
        r.add("xray.tasks", live.totals().tasks as f64);
    }
    if let Some(t) = &res.telemetry {
        let (jsonl, _) = spans.time("telemetry.to_jsonl", || t.to_jsonl());
        r.add("telemetry.rows", jsonl.lines().count() as f64);
    }
    Ok(())
}

/// Counters the program already exposes: `SimResult`, `FaultStats`,
/// `Trace::counters` and the self-profile report.
fn program_counters(res: &SimResult, r: &mut Round) {
    if let Some(p) = &res.profile {
        profile_arms(p, r);
    }
    if let Some(t) = &res.trace {
        let c = t.counters();
        r.add("sched.delay_skips", c.delay_skips as f64);
        r.add("net.flows_started", c.flows_started as f64);
    }
    r.add("net.remote_gb", res.remote_bytes_fetched as f64 / GB);
    r.add(
        "dfs.blocks_re_replicated",
        res.faults.blocks_re_replicated as f64,
    );
    r.add("dfs.recovery_gb", res.faults.recovery_bytes as f64 / GB);
    r.add(
        "dfs.replicas_quarantined",
        res.faults.replicas_quarantined as f64,
    );
    r.add("core.replicas_created", res.replicas_created as f64);
    r.add("core.evictions", res.evictions as f64);
    r.add("core.skipped_by_sampling", res.skipped_by_sampling as f64);
    r.add("mapred.tasks_retried", res.faults.tasks_retried as f64);
    r.add(
        "mapred.speculative_launches",
        res.speculative_launches as f64,
    );
}

fn profile_arms(p: &ProfileReport, r: &mut Round) {
    let secs = |sub| p.of(sub).1 as f64 / 1e9;
    r.add("simcore.queue_s", secs(Subsystem::Queue));
    r.add("sched.dispatch_s", secs(Subsystem::Sched));
    r.add("net.dispatch_s", secs(Subsystem::Net));
    r.add("dfs.dispatch_s", secs(Subsystem::Dfs));
    r.add("mapred.fault_dispatch_s", secs(Subsystem::Fault));
    r.add("simcore.events", p.total_events() as f64);
    r.add("sched.events", p.of(Subsystem::Sched).0 as f64);
    r.add("net.events", p.of(Subsystem::Net).0 as f64);
    r.max("simcore.peak_queue_len", p.peak_queue_len as f64);
}

/// The chaos campaign. Timed and trace rounds run it as configured. The
/// observed round also times `sample_plan` on its own, runs the campaign
/// on one thread as well (its runs and steps must match), and replays the
/// same plans unarmed through `Engine::step`: the armed one-thread
/// campaign minus sampling and the unarmed replay is the cost of the
/// invariant checks.
fn campaign(cfg: &ChaosConfig, mode: Mode, spans: &mut Spans, r: &mut Round) {
    let (report, _) = spans.time("chaos.campaign", || fuzz(cfg));
    let report = match report {
        Ok(rep) => rep,
        Err(e) => {
            r.attempted += 1;
            r.failures
                .push(format!("chaos campaign rejected its config: {e}"));
            return;
        }
    };
    r.attempted += report.runs;
    if let Some(v) = &report.violation {
        r.failures.push(format!(
            "chaos run {} violated {}: {}",
            v.run, v.key, v.error
        ));
    }
    if mode != Mode::Observed {
        return;
    }
    r.add("chaos.runs", report.runs as f64);
    r.add("chaos.steps", report.steps as f64);

    let one = ChaosConfig {
        threads: 1,
        ..cfg.clone()
    };
    let (single, armed_s) = spans.time("chaos.campaign_1t", || fuzz(&one));
    match single {
        Ok(s) if (s.runs, s.steps) == (report.runs, report.steps) => {}
        Ok(s) => r.failures.push(format!(
            "chaos campaign on 1 thread made {} runs / {} steps, on {} threads {} / {}",
            s.runs, s.steps, cfg.threads, report.runs, report.steps
        )),
        Err(e) => r.failures.push(format!("chaos campaign on 1 thread: {e}")),
    }

    let env = ChaosEnv::new(cfg);
    let mut plans = Vec::new();
    let mut sample_s = 0.0;
    for run in 0..report.runs {
        let (plan, secs) = spans.time("chaos.sample", || sample_plan(cfg, &env, run));
        plans.push(plan);
        sample_s += secs;
    }
    let open = spans.begin("chaos.replay_unarmed");
    let mut steps = 0u64;
    for plan in &plans {
        let mut sim = dare_chaos::run::sim_config(cfg, plan, false);
        sim.check_invariants = false;
        let replay = catch_unwind(AssertUnwindSafe(|| {
            let mut eng = Engine::new(sim, &env.workload);
            let mut n = 0u64;
            loop {
                match eng.step() {
                    Ok(StepOutcome::Progressed) => n += 1,
                    Ok(StepOutcome::Quiescent) => return Ok(n),
                    Err(e) => return Err(e.to_string()),
                }
            }
        }));
        match replay {
            Ok(Ok(n)) => steps += n,
            Ok(Err(e)) => r.failures.push(format!("unarmed chaos replay: {e}")),
            Err(p) => r
                .failures
                .push(format!("unarmed chaos replay panicked: {}", panic_text(p))),
        }
    }
    let unarmed_s = spans.end(open);
    if steps != report.steps {
        r.failures.push(format!(
            "unarmed chaos replay made {steps} steps, the armed campaign {}",
            report.steps
        ));
    }
    r.add("chaos.sample_s", sample_s);
    r.add("simcore.check_s", armed_s - sample_s - unarmed_s);
}
