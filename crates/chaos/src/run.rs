//! One fuzz run: drive the real engine under a sampled plan, with every
//! invariant armed and panics captured as verdicts.

use crate::ChaosConfig;
use dare_core::PolicyKind;
use dare_mapred::{Engine, FaultPlan, SchedulerKind, SimConfig, StepOutcome};
use dare_net::{ClusterProfile, RackId};
use dare_workload::swim::{synthesize, SwimParams};
use dare_workload::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Safety bound on one run: a chaos workload drains in well under a
/// million events, so a run still going after this many steps is a
/// livelock and reported as one.
const MAX_RUN_STEPS: u64 = 20_000_000;

/// Everything derived from the campaign knobs that is *shared by every
/// run*: the workload, and the rack membership and block namespace the
/// sampler draws targets from (derived exactly as the engine builds
/// them). The engine seed is fixed across runs — coverage comes from the
/// fault schedules, and a fixed environment is what makes a shrunken
/// plan a deterministic witness.
pub struct ChaosEnv {
    /// Nodes per rack, indexed by rack id (empty racks stay empty).
    pub racks: Vec<Vec<u32>>,
    /// The fuzzed workload.
    pub workload: Workload,
    /// Ingested input blocks (corruption targets must stay below this).
    pub blocks: u64,
    /// The missed-heartbeat declare-dead timeout, in whole seconds: the
    /// sampler biases crash/heal durations around this boundary.
    pub timeout_secs: u64,
}

impl ChaosEnv {
    /// Derive the shared environment of a campaign.
    pub fn new(cfg: &ChaosConfig) -> ChaosEnv {
        let sim = sim_config(cfg, &FaultPlan::default(), false);
        let topology = sim.topology();
        let racks: Vec<Vec<u32>> = (0..topology.racks())
            .map(|r| {
                topology
                    .rack_members(RackId(r))
                    .iter()
                    .map(|n| n.0)
                    .collect()
            })
            .collect();
        // Enough jobs that the cluster stays busy across the fault
        // horizon; trailing faults still dispatch after the last job
        // (quiescence waits for pending fault transitions).
        let jobs = cfg.nodes.clamp(24, 96);
        let workload = synthesize(
            "chaos",
            &SwimParams {
                jobs,
                ..SwimParams::wl1()
            },
            cfg.seed,
        );
        let bs = sim.dfs.block_size;
        let blocks = workload
            .files
            .iter()
            .map(|f| f.size_bytes.div_ceil(bs))
            .sum();
        let timeout_secs =
            (sim.heartbeat.as_secs_f64() * sim.faults.detect_heartbeats as f64).ceil() as u64;
        ChaosEnv {
            racks,
            workload,
            blocks,
            timeout_secs,
        }
    }
}

/// Build the engine for one plan. The engine rejects a node, rack or
/// block outside the cluster it builds, and rack-outage and partition
/// windows that overlap another fault on a member node.
pub fn build_engine(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    plan: &FaultPlan,
    record_trace: bool,
) -> Result<Engine, String> {
    Engine::try_new(sim_config(cfg, plan, record_trace), &env.workload).map_err(|e| e.to_string())
}

/// The engine configuration every run uses: vanilla replication and FIFO
/// scheduling (no policy state to obscure protocol bugs), per-event
/// invariant checks armed.
pub fn sim_config(cfg: &ChaosConfig, plan: &FaultPlan, record_trace: bool) -> SimConfig {
    let mut sim = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, cfg.seed);
    sim.profile = ClusterProfile::scale(cfg.nodes);
    sim.check_invariants = true;
    sim.record_trace = record_trace;
    sim.seeded_bug_skip_heal_recheck = cfg.seeded_bug;
    sim.faults = plan.clone();
    sim
}

/// How one run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Ran to quiescence with every invariant holding.
    Clean,
    /// The engine reported a structured failure (invariant violation,
    /// stall, or orphan flow).
    Violation {
        /// The engine's full error message.
        error: String,
        /// The `[kebab-case]` invariant name extracted from the message,
        /// when it carries one. Shrinking matches on this, so the minimal
        /// plan provably reproduces the *same* failure.
        invariant: Option<String>,
    },
    /// The engine panicked (caught via `catch_unwind`).
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The plan is invalid for the campaign's cluster (see
    /// [`build_engine`]); nothing ran.
    Invalid {
        /// Why the engine rejected the plan.
        error: String,
    },
}

impl Verdict {
    /// True when the run failed in any way.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Verdict::Clean)
    }

    /// The key the shrinker matches on: the invariant name when the
    /// failure carries one, otherwise a coarse kind tag — so shrinking
    /// never "succeeds" by swapping one failure mode for another.
    pub fn failure_key(&self) -> Option<String> {
        match self {
            Verdict::Clean => None,
            Verdict::Violation {
                invariant: Some(inv),
                ..
            } => Some(inv.clone()),
            Verdict::Violation {
                invariant: None, ..
            } => Some("engine-error".into()),
            Verdict::Panic { .. } => Some("panic".into()),
            Verdict::Invalid { .. } => Some("invalid-plan".into()),
        }
    }
}

/// Extract the first `[kebab-case]` token of an engine error message —
/// the invariant catalog name (`dare_simcore::check::InvariantId`) or a
/// path-invariant tag.
pub fn invariant_of(error: &str) -> Option<String> {
    let start = error.find('[')?;
    let rest = &error[start + 1..];
    let end = rest.find(']')?;
    let name = &rest[..end];
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
    {
        return None;
    }
    Some(name.to_string())
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// How the run ended.
    pub verdict: Verdict,
    /// Events dispatched (the fuzzer's throughput unit).
    pub steps: u64,
    /// Node and block entries the per-event invariant checks visited
    /// ([`Engine::invariant_cells`]).
    pub invariant_cells: u64,
    /// Simulated time reached, in seconds.
    pub sim_secs: f64,
}

/// Execute one plan to quiescence. An invalid plan comes back as
/// [`Verdict::Invalid`] without running; a panic anywhere inside the
/// engine is captured and returned as [`Verdict::Panic`]. Returns the
/// recorded trace when `record_trace` was set and the engine got far
/// enough to produce one.
pub fn run_plan(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    plan: &FaultPlan,
    record_trace: bool,
) -> (RunOutcome, Option<dare_trace::Trace>) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut eng = build_engine(cfg, env, plan, record_trace)?;
        let mut steps = 0u64;
        let outcome = loop {
            match eng.step() {
                Ok(StepOutcome::Progressed) => {
                    steps += 1;
                    if steps >= MAX_RUN_STEPS {
                        break Err(format!(
                            "[chaos-livelock] run exceeded {MAX_RUN_STEPS} events without quiescing"
                        ));
                    }
                }
                Ok(StepOutcome::Quiescent) => break Ok(()),
                Err(e) => break Err(e.to_string()),
            }
        };
        let sim_secs = eng.sim_now().as_secs_f64();
        let cells = eng.invariant_cells();
        Ok((outcome, steps, cells, sim_secs, eng.take_trace()))
    }));
    match result {
        Ok(Err(error)) => (
            RunOutcome {
                verdict: Verdict::Invalid { error },
                steps: 0,
                invariant_cells: 0,
                sim_secs: 0.0,
            },
            None,
        ),
        Ok(Ok((outcome, steps, invariant_cells, sim_secs, trace))) => {
            let verdict = match outcome {
                Ok(()) => Verdict::Clean,
                Err(error) => {
                    let invariant = invariant_of(&error);
                    Verdict::Violation { error, invariant }
                }
            };
            (
                RunOutcome {
                    verdict,
                    steps,
                    invariant_cells,
                    sim_secs,
                },
                trace,
            )
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            (
                RunOutcome {
                    verdict: Verdict::Panic { message },
                    steps: 0,
                    invariant_cells: 0,
                    sim_secs: 0.0,
                },
                None,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosConfig {
        ChaosConfig {
            nodes: 12,
            budget_runs: 4,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn env_matches_engine_derivation() {
        let cfg = small();
        let env = ChaosEnv::new(&cfg);
        assert_eq!(
            env.racks.iter().map(Vec::len).sum::<usize>(),
            12,
            "every node sits in exactly one rack"
        );
        assert!(env.blocks > 0);
        assert_eq!(env.timeout_secs, 30, "3s heartbeat x 10 missed");
    }

    #[test]
    fn empty_plan_runs_clean() {
        let cfg = small();
        let env = ChaosEnv::new(&cfg);
        let (outcome, trace) = run_plan(&cfg, &env, &FaultPlan::default(), false);
        assert_eq!(outcome.verdict, Verdict::Clean);
        assert!(outcome.steps > 0);
        assert!(trace.is_none(), "tracing was off");
    }

    #[test]
    fn invalid_plan_is_a_verdict_not_a_panic() {
        let cfg = small();
        let env = ChaosEnv::new(&cfg);
        let mut plan = FaultPlan::default();
        plan.events.push(dare_mapred::FaultEvent::CorruptReplica {
            at_secs: 5,
            node: 0,
            block: env.blocks,
        });
        let (outcome, trace) = run_plan(&cfg, &env, &plan, true);
        match outcome.verdict {
            Verdict::Invalid { error } => assert!(error.contains("block"), "{error}"),
            other => panic!("expected an invalid-plan verdict, got {other:?}"),
        }
        assert_eq!(outcome.steps, 0);
        assert!(trace.is_none());
        assert!(build_engine(&cfg, &env, &FaultPlan::default(), false).is_ok());
    }

    #[test]
    fn invariant_names_are_extracted() {
        assert_eq!(
            invariant_of("3 violation(s): [slot-conservation] node 2 over"),
            Some("slot-conservation".into())
        );
        assert_eq!(
            invariant_of("invariant violation: [no-loss-below-rf] x"),
            Some("no-loss-below-rf".into())
        );
        assert_eq!(invariant_of("stalled at t=4"), None);
        assert_eq!(invariant_of("weird [Not Kebab] text"), None);
    }
}
