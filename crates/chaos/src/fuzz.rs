//! The campaign loop: sample → run → shrink → export → replay-verify.
//!
//! Runs execute in fixed batches of [`BATCH`] and are *judged in run-index
//! order*, so the first failing run — and therefore the exported
//! counterexample — is identical for any thread count. The wall-clock
//! budget is checked only between batches; it bounds machine time without
//! perturbing any verdict that does get computed.

use crate::run::{run_plan, ChaosEnv, Verdict};
use crate::sample::sample_plan;
use crate::shrink::{shrink_plan, ShrinkStats};
use crate::ChaosConfig;
use dare_mapred::FaultPlan;
use dare_simcore::json::{self, Json};
use dare_simcore::parallel::parallel_map_threads;
use dare_trace::{diff_golden, header_values, render_counterexample, strip_headers, to_jsonl};
use std::time::Instant;

/// Runs dispatched per scheduling batch (the determinism quantum: the
/// fuzzer never stops mid-batch, so verdict order is thread-invariant).
pub const BATCH: u64 = 16;

/// A confirmed, minimized, replay-verified failure.
#[derive(Debug, Clone)]
pub struct ChaosViolation {
    /// The run index whose schedule first failed.
    pub run: u64,
    /// The engine error (or panic message) from the *minimal* plan.
    pub error: String,
    /// The shrinker's failure key: the `[kebab-case]` invariant name,
    /// `"engine-error"`, or `"panic"`.
    pub key: String,
    /// The original sampled plan that failed.
    pub plan: FaultPlan,
    /// The locally-minimal plan (equal to `plan` when shrinking is off).
    pub minimal_plan: FaultPlan,
    /// What shrinking cost and achieved.
    pub shrink: ShrinkStats,
    /// The `#`-header golden-trace counterexample (`dare-mc` format).
    pub counterexample: String,
    /// The minimal plan as `dare-sim --fault-plan` JSON.
    pub plan_json: String,
    /// Whether replaying the counterexample reproduced the same failure
    /// key with a byte-identical trace.
    pub replay_verified: bool,
    /// First trace divergence when replay verification failed.
    pub replay_diff: Option<String>,
}

/// What a whole campaign did.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Schedules executed (and judged).
    pub runs: u64,
    /// Engine events dispatched across all runs.
    pub steps: u64,
    /// Node and block entries the per-event invariant checks visited,
    /// summed over all runs: a deterministic work counter.
    pub invariant_cells: u64,
    /// Wall-clock time spent, in seconds.
    pub wall_secs: f64,
    /// Fuzzing throughput: engine events per wall-clock second.
    pub events_per_sec: f64,
    /// True when the wall-clock budget (not the run budget or a
    /// violation) ended the campaign.
    pub stopped_on_budget_secs: bool,
    /// The first violation, when one was found.
    pub violation: Option<ChaosViolation>,
}

/// The outcome of replaying a saved counterexample.
#[derive(Debug, Clone)]
pub struct ChaosReplay {
    /// Did the replay fail at all?
    pub reproduced: bool,
    /// The replay's failure key (compare with `expected_key`).
    pub failure_key: Option<String>,
    /// The failure key recorded in the counterexample header.
    pub expected_key: Option<String>,
    /// First divergence between the saved trace and the replay's, if any.
    pub diff: Option<String>,
}

impl ChaosReplay {
    /// Replay succeeded: same failure key, byte-identical trace.
    pub fn verified(&self) -> bool {
        self.reproduced && self.diff.is_none() && self.failure_key == self.expected_key
    }
}

fn resolve_threads(cfg: &ChaosConfig) -> usize {
    if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.threads
    }
}

fn config_line(cfg: &ChaosConfig) -> String {
    format!(
        "nodes={} horizon={}s density={} alphabet={} seed={:#x} seeded_bug={}",
        cfg.nodes,
        cfg.horizon_secs,
        cfg.density,
        cfg.alphabet.encode(),
        cfg.seed,
        cfg.seeded_bug
    )
}

/// Run one fuzzing campaign to completion (budget exhausted or first
/// violation found, shrunk, exported, and replay-verified).
pub fn fuzz(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    cfg.validate()?;
    let env = ChaosEnv::new(cfg);
    let threads = resolve_threads(cfg);
    let start = Instant::now();

    let mut runs = 0u64;
    let mut steps = 0u64;
    let mut invariant_cells = 0u64;
    let mut stopped_on_budget_secs = false;
    let mut violation = None;

    'campaign: while runs < cfg.budget_runs {
        if cfg.budget_secs > 0 && start.elapsed().as_secs() >= cfg.budget_secs {
            stopped_on_budget_secs = true;
            break;
        }
        let batch: Vec<u64> = (runs..(runs + BATCH).min(cfg.budget_runs)).collect();
        let results = parallel_map_threads(batch, threads, |run| {
            let plan = sample_plan(cfg, &env, run);
            let (outcome, _) = run_plan(cfg, &env, &plan, false);
            (run, plan, outcome)
        });
        // Input-order results: judging this loop in sequence IS judging
        // in run-index order.
        for (run, plan, outcome) in results {
            runs += 1;
            steps += outcome.steps;
            invariant_cells += outcome.invariant_cells;
            if outcome.verdict.is_failure() {
                violation = Some(build_violation(cfg, &env, run, plan, &outcome.verdict));
                break 'campaign;
            }
        }
    }

    let wall_secs = start.elapsed().as_secs_f64();
    let events_per_sec = if wall_secs > 0.0 {
        steps as f64 / wall_secs
    } else {
        0.0
    };
    Ok(ChaosReport {
        runs,
        steps,
        invariant_cells,
        wall_secs,
        events_per_sec,
        stopped_on_budget_secs,
        violation,
    })
}

/// Shrink a failing plan, export the counterexample, and replay-verify it.
fn build_violation(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    run: u64,
    plan: FaultPlan,
    verdict: &Verdict,
) -> ChaosViolation {
    let key = verdict
        .failure_key()
        .expect("build_violation called on a failing verdict");

    let (minimal_plan, shrink) = if cfg.shrink {
        shrink_plan(cfg, env, &plan, &key)
    } else {
        let n = plan.events.len();
        (
            plan.clone(),
            ShrinkStats {
                original_events: n,
                minimal_events: n,
                probes: 0,
            },
        )
    };

    // Re-run the minimal plan with tracing on: its error message and
    // trace are what the counterexample records.
    let (minimal_outcome, trace) = run_plan(cfg, env, &minimal_plan, true);
    let error = match &minimal_outcome.verdict {
        Verdict::Clean => unreachable!("shrinker preserved the failure key"),
        Verdict::Violation { error, .. } => error.clone(),
        Verdict::Panic { message } => format!("panic: {message}"),
        Verdict::Invalid { error } => error.clone(),
    };

    let plan_json = minimal_plan.to_json();
    let headers: Vec<(&str, String)> =
        vec![("key", key.clone()), ("plan", plan_json.replace('\n', " "))];
    let counterexample = render_counterexample(
        "dare-chaos",
        &config_line(cfg),
        &error,
        &headers,
        trace.as_ref(),
    );

    let (replay_verified, replay_diff) = match replay_with_env(cfg, env, &counterexample) {
        Ok(replay) => (replay.verified(), replay.diff),
        Err(e) => (false, Some(format!("replay parse error: {e}"))),
    };

    ChaosViolation {
        run,
        error,
        key,
        plan,
        minimal_plan,
        shrink,
        counterexample,
        plan_json,
        replay_verified,
        replay_diff,
    }
}

/// Replay a saved counterexample against a freshly derived environment.
/// The campaign knobs (`nodes`, `seed`, `seeded_bug`, …) must match the
/// ones recorded in the counterexample's config header.
pub fn replay_counterexample(cfg: &ChaosConfig, saved: &str) -> Result<ChaosReplay, String> {
    cfg.validate()?;
    let env = ChaosEnv::new(cfg);
    replay_with_env(cfg, &env, saved)
}

fn replay_with_env(cfg: &ChaosConfig, env: &ChaosEnv, saved: &str) -> Result<ChaosReplay, String> {
    let plans = header_values(saved, "plan");
    let plan_line = match plans.as_slice() {
        [one] => one,
        [] => return Err("counterexample has no `# plan:` header".into()),
        _ => return Err("counterexample has multiple `# plan:` headers".into()),
    };
    let plan = FaultPlan::from_json(plan_line)?;
    let expected_key = header_values(saved, "key").into_iter().next();

    let (outcome, trace) = run_plan(cfg, env, &plan, true);
    if let Verdict::Invalid { error } = outcome.verdict {
        return Err(error);
    }
    let golden = strip_headers(saved);
    let actual = trace.as_ref().map(to_jsonl).unwrap_or_default();
    let diff = diff_golden(&golden, &actual);
    Ok(ChaosReplay {
        reproduced: outcome.verdict.is_failure(),
        failure_key: outcome.verdict.failure_key(),
        expected_key,
        diff,
    })
}

/// Render a campaign report as the `results/BENCH_chaos.json` document.
/// Its `command` lists every knob that shapes the campaign, so the same
/// command reruns it.
pub fn bench_json(cfg: &ChaosConfig, report: &ChaosReport) -> String {
    let shrink = if cfg.shrink { "" } else { " --no-shrink" };
    let bug = if cfg.seeded_bug { " --seeded-bug" } else { "" };
    let command = format!(
        "cargo run --release --bin dare-sim -- chaos --nodes {} --horizon {} --density {} \
         --alphabet {} --seed {} --budget-runs {} --budget-secs {}{shrink}{bug} \
         --bench-json results/BENCH_chaos.json",
        cfg.nodes,
        cfg.horizon_secs,
        cfg.density,
        cfg.alphabet.encode(),
        cfg.seed,
        cfg.budget_runs,
        cfg.budget_secs,
    );
    let violation = match &report.violation {
        None => Json::Null,
        Some(v) => {
            let ratio = if v.shrink.original_events > 0 {
                v.shrink.minimal_events as f64 / v.shrink.original_events as f64
            } else {
                1.0
            };
            Json::obj([
                ("run", Json::from(v.run)),
                ("key", v.key.as_str().into()),
                ("original_events", v.shrink.original_events.into()),
                ("minimal_events", v.shrink.minimal_events.into()),
                ("shrink_probes", v.shrink.probes.into()),
                ("shrink_ratio", Json::fixed(ratio, 3)),
                ("replay_verified", v.replay_verified.into()),
            ])
        }
    };
    json::bench_report(
        "chaos",
        &command,
        [
            ("nodes", Json::from(cfg.nodes)),
            ("horizon_secs", cfg.horizon_secs.into()),
            ("density", Json::float(cfg.density)),
            ("alphabet", cfg.alphabet.encode().into()),
            ("seed", format!("{:#x}", cfg.seed).into()),
            ("seeded_bug", cfg.seeded_bug.into()),
            ("budget_runs", cfg.budget_runs.into()),
            ("budget_secs", cfg.budget_secs.into()),
            ("runs", report.runs.into()),
            ("events", report.steps.into()),
            ("invariant_cells", report.invariant_cells.into()),
            ("wall_secs", Json::fixed(report.wall_secs, 3)),
            ("events_per_sec", Json::fixed(report.events_per_sec, 1)),
            (
                "stopped_on_budget_secs",
                report.stopped_on_budget_secs.into(),
            ),
            ("violations", u32::from(report.violation.is_some()).into()),
            ("violation", violation),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seeded_bug: bool) -> ChaosConfig {
        ChaosConfig {
            nodes: 24,
            budget_runs: 24,
            seeded_bug,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn clean_campaign_reports_no_violation() {
        let cfg = quick(false);
        let report = fuzz(&cfg).unwrap();
        assert_eq!(report.runs, 24);
        assert!(report.violation.is_none(), "clean engine fuzzed clean");
        assert!(report.steps > 0);
        let json = bench_json(&cfg, &report);
        assert!(json.contains("\"violations\": 0"));
        assert!(json.contains("\"violation\": null"));
    }

    #[test]
    fn verdicts_are_thread_count_invariant() {
        let one = fuzz(&ChaosConfig {
            threads: 1,
            ..quick(false)
        })
        .unwrap();
        let many = fuzz(&ChaosConfig {
            threads: 4,
            ..quick(false)
        })
        .unwrap();
        assert_eq!(one.runs, many.runs);
        assert_eq!(one.steps, many.steps);
        assert_eq!(one.invariant_cells, many.invariant_cells);
        assert_eq!(one.violation.is_some(), many.violation.is_some());
    }

    /// The invariant-cell counter is a deterministic work count: equal on
    /// 1 and 2 threads and across repeated runs, and at least 10x below
    /// what the full scan visits (every node and block at every event).
    #[test]
    fn invariant_cells_are_deterministic_and_incremental() {
        let cfg = ChaosConfig {
            nodes: 16,
            budget_runs: BATCH,
            ..ChaosConfig::default()
        };
        let one = fuzz(&ChaosConfig {
            threads: 1,
            ..cfg.clone()
        })
        .unwrap();
        let two = fuzz(&ChaosConfig {
            threads: 2,
            ..cfg.clone()
        })
        .unwrap();
        let again = fuzz(&ChaosConfig {
            threads: 2,
            ..cfg.clone()
        })
        .unwrap();
        assert!(one.invariant_cells > 0);
        assert_eq!(one.invariant_cells, two.invariant_cells);
        assert_eq!(two.invariant_cells, again.invariant_cells);
        let env = crate::run::ChaosEnv::new(&cfg);
        let full_scan = one.steps * (cfg.nodes as u64 + env.blocks);
        assert!(
            one.invariant_cells * 10 <= full_scan,
            "{} cells against a full scan's {full_scan}",
            one.invariant_cells
        );
        let json = bench_json(&cfg, &one);
        assert!(json.contains(&format!("\"invariant_cells\": {},", one.invariant_cells)));
    }
}
