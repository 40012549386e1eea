//! # dare-mc — bounded model checking of the failure/replication protocol
//!
//! The crash/rejoin/corruption/re-replication semantics in
//! `dare_mapred::engine` must hold under *every* ordering of failure and
//! recovery events, not just the orderings the experiment seeds happen to
//! produce. This crate explores that space exhaustively at small bounds:
//! a tiny cluster (≤6 nodes, ≤8 blocks) is driven one simulation event at
//! a time, and between events the checker branches on a fault alphabet —
//! permanent kill, transient crash (short and long outages, so both
//! rejoin-before-declare and declared-then-rejoin orderings are reached),
//! and silent replica corruption. Internal protocol transitions (declare
//! dead, rejoin, re-replication completion, scrub detection) are ordinary
//! engine events reached by `Advance` actions, so every admissible
//! interleaving of injection against protocol progress is covered up to
//! the depth bound.
//!
//! ## Forking by replay
//!
//! A checker state is its **action prefix**: the engine is rebuilt from
//! the deterministic config and the prefix replayed to fork. `Engine` is
//! `Clone`, and a clone with one action applied reaches the state replay
//! does (`clone_then_apply_matches_replay`), so the checker could fork by
//! clone instead; it keeps replay until that switch is measured on its
//! own. Replay is cheap at these bounds and keeps the checker decoupled
//! from engine internals.
//!
//! ## Deduplication
//!
//! After each prefix the engine's [`Engine::state_fingerprint`] — logical
//! engine state, the extended DFS fingerprint, and a now-relative digest
//! of the pending event queue — keys a visited set. Two action orders
//! converging on the same logical state are explored once.
//!
//! ## Invariants
//!
//! Per-event structural checks run inside the engine against the shared
//! [`dare_simcore::check::InvariantId`] catalog. When a path reaches the
//! depth bound or quiescence, the checker *closes* it: the remaining
//! events run without further branching (the suffix is deterministic), the
//! engine's terminal checks fire, and the path-level `no-loss-below-rf`
//! invariant is judged — a path whose availability faults stayed below
//! the replication factor and injected no corruption must lose no block.
//!
//! A violating path is exported as a JSONL counterexample: the engine's
//! structured trace with `#`-comment headers carrying the action prefix,
//! replayable through [`replay_counterexample`] and diffable with the
//! golden differ.

#![warn(missing_docs)]

use dare_core::PolicyKind;
use dare_mapred::{Engine, SchedulerKind, SimConfig, StepOutcome};
use dare_net::{ClusterProfile, MB};
use dare_simcore::{FxHashSet, SimDuration, SimTime};
use dare_workload::{FileSpec, JobSpec, Workload};

/// Exploration order of the state-space frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Depth-first: finds deep counterexamples fast, bounded memory.
    #[default]
    Dfs,
    /// Breadth-first: finds *shortest* counterexamples first.
    Bfs,
}

/// One transition of the checker's alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Dispatch the next pending simulation event (protocol progress:
    /// heartbeats, declare-dead timers, rejoins, recovery completions,
    /// scrub detections all happen here).
    Advance,
    /// Permanently kill a node (disk wiped, never rejoins).
    Kill(u32),
    /// Transiently crash a node; it rejoins after the given seconds.
    Crash(u32, u64),
    /// Silently corrupt the replica of a block on a node.
    Corrupt(u32, u64),
}

impl Action {
    /// Render for counterexample headers (`# action: ...`).
    pub fn encode(&self) -> String {
        match *self {
            Action::Advance => "advance".into(),
            Action::Kill(n) => format!("kill {n}"),
            Action::Crash(n, d) => format!("crash {n} {d}"),
            Action::Corrupt(n, b) => format!("corrupt {n} {b}"),
        }
    }

    /// Parse a counterexample header line's payload.
    pub fn decode(s: &str) -> Option<Action> {
        let mut it = s.split_whitespace();
        let a = match it.next()? {
            "advance" => Action::Advance,
            "kill" => Action::Kill(it.next()?.parse().ok()?),
            "crash" => Action::Crash(it.next()?.parse().ok()?, it.next()?.parse().ok()?),
            "corrupt" => Action::Corrupt(it.next()?.parse().ok()?, it.next()?.parse().ok()?),
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(a)
    }
}

/// Bounds and knobs of one checking run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Worker nodes in the model cluster (keep ≤ 6).
    pub nodes: u32,
    /// Input blocks (one file; keep ≤ 8).
    pub blocks: u32,
    /// Target replication factor (must be ≤ `nodes`).
    pub rf: u32,
    /// Maximum actions along a branching prefix; beyond it the path is
    /// closed deterministically.
    pub depth: u32,
    /// Unique-state budget; exploration stops when exhausted.
    pub max_states: usize,
    /// Frontier order.
    pub strategy: Strategy,
    /// Seed for the engine's deterministic streams.
    pub seed: u64,
    /// Maximum fault injections (of any kind) per path.
    pub max_faults: u32,
    /// Outage durations offered for transient crashes. The defaults — one
    /// shorter and one longer than the declare-dead timeout (30 s at
    /// default heartbeat × detection) — reach both rejoin-before-declare
    /// and declared-then-rejoin orderings.
    pub crash_down_secs: Vec<u64>,
    /// Offer corruption injections (off restricts to availability faults).
    pub allow_corruption: bool,
    /// Concurrent re-replication stream cap
    /// ([`dare_mapred::FaultPlan::max_recovery_streams`]). Lowering it to 1
    /// backs the repair queue up behind a single transfer, which is how
    /// the rejoin-heals-a-queued-block race becomes reachable at tiny
    /// cluster sizes.
    pub max_recovery_streams: usize,
    /// Arm the engine's deliberate recovery-path mutation
    /// (`SimConfig::seeded_bug_skip_heal_recheck`) to validate that the
    /// checker actually catches protocol bugs.
    pub seeded_bug: bool,
    /// Stop at the first violation instead of collecting all of them.
    pub stop_on_violation: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            nodes: 4,
            blocks: 4,
            rf: 2,
            depth: 10,
            max_states: 200_000,
            strategy: Strategy::Dfs,
            seed: 0xDA4E,
            max_faults: 2,
            crash_down_secs: vec![5, 45],
            allow_corruption: true,
            max_recovery_streams: 4,
            seeded_bug: false,
            stop_on_violation: true,
        }
    }
}

impl McConfig {
    /// Sanity-check the bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.nodes > 6 {
            return Err(format!("nodes {} out of 1..=6", self.nodes));
        }
        if self.blocks == 0 || self.blocks > 8 {
            return Err(format!("blocks {} out of 1..=8", self.blocks));
        }
        if self.rf == 0 || self.rf > self.nodes {
            return Err(format!("rf {} out of 1..=nodes", self.rf));
        }
        if self.depth == 0 {
            return Err("zero depth".into());
        }
        if self.crash_down_secs.is_empty() {
            return Err("no crash durations".into());
        }
        Ok(())
    }
}

/// A violated invariant plus the path that reached it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The action prefix from the initial state to the violation. An
    /// empty closure marker means it surfaced during deterministic
    /// closure after the last listed action.
    pub actions: Vec<Action>,
    /// Whether the violation surfaced during deterministic closure
    /// (after the branching prefix) rather than on the prefix itself.
    pub during_closure: bool,
    /// The engine's (or path invariant's) error message.
    pub error: String,
    /// JSONL counterexample: `#` headers with the action prefix, then
    /// the structured trace of the violating run.
    pub jsonl: String,
}

/// Everything one checking run learned.
#[derive(Debug, Clone, Default)]
pub struct McReport {
    /// States whose successors were generated.
    pub states_explored: u64,
    /// Unique state fingerprints inserted into the visited set.
    pub states_visited: u64,
    /// Successor evaluations (edges followed).
    pub transitions: u64,
    /// Successors pruned because their fingerprint was already visited.
    pub deduped: u64,
    /// Paths closed deterministically (depth bound or quiescence).
    pub paths_closed: u64,
    /// True when the unique-state budget stopped exploration early.
    pub truncated: bool,
    /// Order-insensitive digest of every visited fingerprint — two
    /// explorations of the same bound must agree bit-for-bit (the
    /// determinism regression check).
    pub fingerprint_digest: u64,
    /// Every invariant violation found, including those whose artifacts
    /// were dropped by the [`MAX_STORED_VIOLATIONS`] cap. Compare against
    /// `violations.len()` to tell a capped run from a small one.
    pub violations_total: u64,
    /// Invariant violations found (empty on a clean pass), capped at
    /// [`MAX_STORED_VIOLATIONS`] stored artifacts; `violations_total`
    /// keeps the true count.
    pub violations: Vec<Violation>,
}

/// Cap on *stored* violation artifacts (each carries a full JSONL trace,
/// so an unbounded `stop_on_violation = false` sweep would hold every
/// violating trace in memory at once). The total count is never capped:
/// [`McReport::violations_total`] counts all violations found.
pub const MAX_STORED_VIOLATIONS: usize = 32;

/// The model cluster's workload: one file of `blocks` input blocks and a
/// single one-reduce job over it, small enough that a closed path drains
/// in a few hundred events.
fn mc_workload(cfg: &McConfig) -> Workload {
    Workload {
        name: "mc".into(),
        files: vec![FileSpec {
            name: "mc/f0".into(),
            size_bytes: cfg.blocks as u64 * 128 * MB,
        }],
        jobs: vec![JobSpec {
            id: 0,
            arrival: SimTime::ZERO,
            file: 0,
            map_compute: SimDuration::from_secs(10),
            reduces: 1,
            output_bytes: 10 * MB,
        }],
    }
}

/// Engine configuration of the model cluster: vanilla policy and FIFO
/// scheduling (no hidden policy state to fingerprint), per-event
/// invariant checks on, trace recording on for counterexample export.
fn mc_sim_config(cfg: &McConfig) -> SimConfig {
    let mut sim = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, cfg.seed);
    sim.profile = ClusterProfile::scale(cfg.nodes);
    sim.dfs.replication_factor = cfg.rf;
    sim.check_invariants = true;
    sim.record_trace = true;
    sim.faults.max_recovery_streams = cfg.max_recovery_streams;
    sim.seeded_bug_skip_heal_recheck = cfg.seeded_bug;
    sim
}

/// Build a fresh engine and replay an action prefix. Returns the engine
/// ready for further actions, or the error the prefix hit (with the
/// trace recorded up to that point).
fn replay(
    cfg: &McConfig,
    wl: &Workload,
    actions: &[Action],
) -> Result<Engine, Box<(Engine, String)>> {
    let mut eng = Engine::new(mc_sim_config(cfg), wl);
    for a in actions {
        if let Err(e) = apply(&mut eng, *a) {
            return Err(Box::new((eng, e)));
        }
    }
    Ok(eng)
}

/// Apply one action to a live engine.
fn apply(eng: &mut Engine, a: Action) -> Result<(), String> {
    match a {
        Action::Advance => eng.step().map(|_| ()).map_err(|e| e.to_string()),
        Action::Kill(n) => {
            eng.inject_kill(n);
            Ok(())
        }
        Action::Crash(n, d) => {
            eng.inject_crash(n, d);
            Ok(())
        }
        Action::Corrupt(n, b) => {
            eng.inject_corrupt(n, b);
            Ok(())
        }
    }
}

/// Safety bound on a deterministic closure: the model workload drains in
/// a few hundred events, so a closure still running after this many
/// steps is a livelock and reported as one.
const MAX_CLOSURE_STEPS: usize = 100_000;

/// Fault tally of one path.
#[derive(Debug, Clone, Copy, Default)]
struct PathFaults {
    availability: u32, // kills + crashes
    corruptions: u32,
}

fn tally(actions: &[Action]) -> PathFaults {
    let mut f = PathFaults::default();
    for a in actions {
        match a {
            Action::Kill(_) | Action::Crash(_, _) => f.availability += 1,
            Action::Corrupt(_, _) => f.corruptions += 1,
            Action::Advance => {}
        }
    }
    f
}

/// Run the suffix of a path deterministically to quiescence and judge
/// the terminal and path invariants. Returns the first failure.
fn close_path(eng: &mut Engine, faults: PathFaults, rf: u32) -> Result<(), String> {
    for _ in 0..MAX_CLOSURE_STEPS {
        match eng.step() {
            Ok(StepOutcome::Progressed) => {}
            Ok(StepOutcome::Quiescent) => {
                // Path invariant: fewer concurrent availability faults
                // than replicas, and no corruption injected, means no
                // block may be lost. (Total per-path faults bound the
                // concurrent count from above.)
                let s = eng.fault_stats();
                if faults.availability < rf && faults.corruptions == 0 {
                    let lost = s.blocks_lost + s.blocks_lost_corruption;
                    if lost > 0 {
                        return Err(format!(
                            "[no-loss-below-rf] {lost} block(s) lost on a path with \
                             {} availability fault(s) below RF {rf} and no corruption",
                            faults.availability
                        ));
                    }
                }
                return Ok(());
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Err(format!(
        "[terminal-completeness] closure did not quiesce within {MAX_CLOSURE_STEPS} events"
    ))
}

/// Admissible actions from the current engine state.
fn successors(cfg: &McConfig, eng: &Engine, faults: PathFaults) -> Vec<Action> {
    let mut out = Vec::new();
    out.push(Action::Advance);
    let budget_left = faults.availability + faults.corruptions < cfg.max_faults;
    if !budget_left {
        return out;
    }
    for n in 0..cfg.nodes {
        if !eng.node_alive(n) {
            continue;
        }
        out.push(Action::Kill(n));
        for &d in &cfg.crash_down_secs {
            out.push(Action::Crash(n, d));
        }
        if cfg.allow_corruption {
            for b in 0..cfg.blocks as u64 {
                if eng.block_present(n, b) && !eng.block_corrupt_at(n, b) {
                    out.push(Action::Corrupt(n, b));
                }
            }
        }
    }
    out
}

/// Export a violating run as a JSONL counterexample: `#` headers carry
/// the checker config and action prefix (the golden differ's normalizer
/// strips them), then the engine's structured trace. The artifact format
/// itself lives in [`dare_trace::counterexample`], shared with
/// `dare-chaos`.
fn export_counterexample(
    cfg: &McConfig,
    eng: &mut Engine,
    actions: &[Action],
    error: &str,
) -> String {
    let headers: Vec<(&str, String)> = actions.iter().map(|a| ("action", a.encode())).collect();
    dare_trace::render_counterexample(
        "dare-mc",
        &format!(
            "nodes={} blocks={} rf={} depth={} seed={:#x} seeded_bug={}",
            cfg.nodes, cfg.blocks, cfg.rf, cfg.depth, cfg.seed, cfg.seeded_bug
        ),
        error,
        &headers,
        eng.take_trace().as_ref(),
    )
}

/// Explore the bounded state space and report what was found.
///
/// Deterministic: two runs with the same `McConfig` produce identical
/// state counts, fingerprint digests, and violations.
pub fn explore(cfg: &McConfig) -> Result<McReport, String> {
    cfg.validate()?;
    let wl = mc_workload(cfg);
    wl.validate()?;
    let mut report = McReport::default();
    let mut visited: FxHashSet<u64> = FxHashSet::default();

    // Frontier of action prefixes. DFS pops the back, BFS the front.
    let mut frontier: std::collections::VecDeque<Vec<Action>> = std::collections::VecDeque::new();

    let root = replay(cfg, &wl, &[]).map_err(|b| format!("initial state invalid: {}", b.1))?;
    let fp0 = root.state_fingerprint();
    visited.insert(fp0);
    report.states_visited = 1;
    report.fingerprint_digest ^= fp0;
    frontier.push_back(Vec::new());

    'outer: while let Some(prefix) = match cfg.strategy {
        Strategy::Dfs => frontier.pop_back(),
        Strategy::Bfs => frontier.pop_front(),
    } {
        // Rebuild the engine at this state (prefixes in the frontier
        // replayed cleanly when enqueued, so errors cannot recur here).
        let Ok(mut eng) = replay(cfg, &wl, &prefix) else {
            continue;
        };
        let faults = tally(&prefix);

        if eng.is_quiescent() || prefix.len() as u32 >= cfg.depth {
            // Close the path: run the deterministic suffix and judge the
            // terminal + path invariants.
            report.paths_closed += 1;
            if let Err(e) = close_path(&mut eng, faults, cfg.rf) {
                report.violations_total += 1;
                if report.violations.len() < MAX_STORED_VIOLATIONS {
                    let jsonl = export_counterexample(cfg, &mut eng, &prefix, &e);
                    report.violations.push(Violation {
                        actions: prefix.clone(),
                        during_closure: true,
                        error: e,
                        jsonl,
                    });
                }
                if cfg.stop_on_violation {
                    break 'outer;
                }
            }
            continue;
        }

        report.states_explored += 1;
        for a in successors(cfg, &eng, faults) {
            report.transitions += 1;
            let mut child = prefix.clone();
            child.push(a);
            // Evaluate the successor on a fresh replay so this state's
            // engine stays pristine for its remaining successors.
            match replay(cfg, &wl, &child) {
                Ok(c) => {
                    let fp = c.state_fingerprint();
                    if visited.insert(fp) {
                        report.states_visited += 1;
                        report.fingerprint_digest ^= fp;
                        if visited.len() >= cfg.max_states {
                            report.truncated = true;
                            frontier.push_back(child);
                            break 'outer;
                        }
                        frontier.push_back(child);
                    } else {
                        report.deduped += 1;
                    }
                }
                Err(boxed) => {
                    report.violations_total += 1;
                    if report.violations.len() < MAX_STORED_VIOLATIONS {
                        let (mut bad, e) = *boxed;
                        let jsonl = export_counterexample(cfg, &mut bad, &child, &e);
                        report.violations.push(Violation {
                            actions: child,
                            during_closure: false,
                            error: e,
                            jsonl,
                        });
                    }
                    if cfg.stop_on_violation {
                        break 'outer;
                    }
                }
            }
        }
    }
    Ok(report)
}

/// Parse the `# action:` headers of a counterexample export.
pub fn parse_counterexample_actions(jsonl: &str) -> Result<Vec<Action>, String> {
    dare_trace::header_values(jsonl, "action")
        .iter()
        .map(|s| {
            Action::decode(s).ok_or_else(|| format!("unparseable counterexample action: {s:?}"))
        })
        .collect()
}

/// What replaying a counterexample established.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The violation reproduced (the replayed path failed again).
    pub reproduced: bool,
    /// Error message of the reproduced violation, when any.
    pub error: Option<String>,
    /// The freshly exported trace of the replayed path, as JSONL.
    pub jsonl: String,
    /// `Some(report)` when the replayed trace *differs* from the saved
    /// counterexample, rendered by the golden differ as an event-sequence
    /// divergence; `None` when they match line-for-line.
    pub diff: Option<String>,
}

/// Re-run a saved counterexample under the same bounds and compare the
/// regenerated trace against the saved one with the golden differ — the
/// "replayable" guarantee: a counterexample is not a one-off artifact
/// but a deterministic witness.
pub fn replay_counterexample(cfg: &McConfig, saved: &str) -> Result<ReplayOutcome, String> {
    let actions = parse_counterexample_actions(saved)?;
    let wl = mc_workload(cfg);
    let (mut eng, reproduced, error) = match replay(cfg, &wl, &actions) {
        Ok(mut eng) => {
            // Prefix clean: the violation must have surfaced in closure.
            let faults = tally(&actions);
            match close_path(&mut eng, faults, cfg.rf) {
                Ok(()) => (eng, false, None),
                Err(e) => (eng, true, Some(e)),
            }
        }
        Err(boxed) => {
            let (eng, e) = *boxed;
            (eng, true, Some(e))
        }
    };
    let jsonl = export_counterexample(cfg, &mut eng, &actions, error.as_deref().unwrap_or(""));
    let diff = dare_trace::diff_golden(saved, &jsonl);
    Ok(ReplayOutcome {
        reproduced,
        error,
        jsonl,
        diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(depth: u32) -> McConfig {
        McConfig {
            nodes: 3,
            blocks: 2,
            rf: 2,
            depth,
            max_faults: 1,
            allow_corruption: false,
            ..McConfig::default()
        }
    }

    /// The CI sweep's yardsticks. Test builds also cross-check every
    /// step's incremental invariant check against the full-scan oracle
    /// (the engine panics on any disagreement).
    #[test]
    fn ci_sweep_keeps_its_digest() {
        let report = explore(&McConfig {
            depth: 8,
            ..McConfig::default()
        })
        .expect("explore");
        assert_eq!(report.violations_total, 0);
        assert_eq!(report.states_explored, 4654);
        assert_eq!(report.paths_closed, 1881);
        assert_eq!(report.fingerprint_digest, 0x2d68_dd26_d451_62a0);
    }

    /// Forking by clone reaches the state forking by replay does: along
    /// random paths, a clone of the parent with one action applied has
    /// the fingerprint of a fresh engine replaying the whole prefix, and
    /// the parent is untouched.
    #[test]
    fn clone_then_apply_matches_replay() {
        let cfg = McConfig {
            depth: 12,
            max_faults: 3,
            ..McConfig::default()
        };
        let wl = mc_workload(&cfg);
        let mut rng = dare_simcore::DetRng::new(0xC10E);
        for _ in 0..24 {
            let mut eng = Engine::new(mc_sim_config(&cfg), &wl);
            let mut prefix = Vec::new();
            for _ in 0..cfg.depth {
                let options = successors(&cfg, &eng, tally(&prefix));
                let a = options[rng.index(options.len())];
                prefix.push(a);
                let parent = eng.state_fingerprint();
                let mut fork = eng.clone();
                apply(&mut fork, a).expect("clean protocol");
                assert_eq!(eng.state_fingerprint(), parent, "parent changed by {a:?}");
                let replayed = replay(&cfg, &wl, &prefix).map_err(|b| b.1).expect("replay");
                assert_eq!(
                    fork.state_fingerprint(),
                    replayed.state_fingerprint(),
                    "clone and replay diverged after {prefix:?}"
                );
                eng = fork;
            }
        }
    }

    #[test]
    fn clean_protocol_has_no_violations_at_small_bound() {
        let report = explore(&small(4)).expect("explore");
        assert!(
            report.violations.is_empty(),
            "unexpected violations: {:?}",
            report
                .violations
                .iter()
                .map(|v| &v.error)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.violations_total, 0);
        assert!(report.states_visited > report.states_explored / 2);
        assert!(report.deduped > 0, "dedup never fired at this bound");
        assert!(!report.truncated);
    }

    /// Regression for a bug the deep sweep found: two fetches complete
    /// in the same NetCheck batch; the first detects a corrupt source,
    /// the quarantine declares a block lost, the job fails, and failing
    /// the job aborts the sibling attempt — cancelling the second flow
    /// while its fid is already drained into the batch. The engine used
    /// to report that fid as an orphan flow (bookkeeping drift) instead
    /// of a legitimate same-batch cancellation.
    #[test]
    fn same_batch_cancellation_is_not_an_orphan_flow() {
        let cfg = McConfig {
            depth: 14,
            max_faults: 3,
            ..McConfig::default()
        };
        let path: Vec<Action> = [
            "advance",
            "advance",
            "advance",
            "advance",
            "crash 1 45",
            "advance",
            "advance",
            "advance",
            "corrupt 0 2",
            "crash 0 45",
            "advance",
            "advance",
            "advance",
            "advance",
        ]
        .iter()
        .map(|s| Action::decode(s).expect("decode"))
        .collect();
        let wl = mc_workload(&cfg);
        let mut eng = replay(&cfg, &wl, &path)
            .map_err(|b| b.1)
            .expect("prefix is fault-free");
        close_path(&mut eng, tally(&path), cfg.rf).expect("closure hits no violation");
    }

    /// Satellite regression: two explorations of the same bound must
    /// produce identical state counts and fingerprint digests — the
    /// successor enumeration is bit-deterministic.
    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&small(5)).expect("explore");
        let b = explore(&small(5)).expect("explore");
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(a.states_visited, b.states_visited);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.deduped, b.deduped);
        assert_eq!(a.fingerprint_digest, b.fingerprint_digest);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    #[test]
    fn bfs_and_dfs_visit_the_same_states() {
        let dfs = explore(&small(4)).expect("dfs");
        let bfs = explore(&McConfig {
            strategy: Strategy::Bfs,
            ..small(4)
        })
        .expect("bfs");
        assert_eq!(dfs.states_visited, bfs.states_visited);
        assert_eq!(dfs.fingerprint_digest, bfs.fingerprint_digest);
    }

    #[test]
    fn seeded_bug_yields_replayable_counterexample() {
        // One recovery stream and a rejoin one second after declare-dead:
        // the second queued block heals (rejoin restores its replica)
        // while the first block's transfer is still in flight, so the
        // buggy pump starts a spurious repair when it pops.
        let cfg = McConfig {
            nodes: 3,
            blocks: 2,
            rf: 2,
            depth: 4,
            max_faults: 1,
            allow_corruption: false,
            crash_down_secs: vec![31],
            max_recovery_streams: 1,
            seeded_bug: true,
            ..McConfig::default()
        };
        let report = explore(&cfg).expect("explore");
        assert!(
            !report.violations.is_empty(),
            "the seeded recovery bug must be caught"
        );
        // Under the storage cap every found violation is still counted.
        assert_eq!(report.violations_total, report.violations.len() as u64);
        let v = &report.violations[0];
        assert!(
            v.error.contains("rereplication-convergence"),
            "unexpected invariant: {}",
            v.error
        );
        dare_trace::from_jsonl(&dare_trace::strip_headers(&v.jsonl))
            .expect("counterexample body is valid JSONL");
        let replayed = replay_counterexample(&cfg, &v.jsonl).expect("replay");
        assert!(replayed.reproduced, "counterexample must reproduce");
        assert!(
            replayed.diff.is_none(),
            "replayed trace diverged:\n{}",
            replayed.diff.as_deref().unwrap_or_default()
        );
    }

    #[test]
    fn action_encoding_round_trips() {
        for a in [
            Action::Advance,
            Action::Kill(3),
            Action::Crash(1, 45),
            Action::Corrupt(2, 7),
        ] {
            assert_eq!(Action::decode(&a.encode()), Some(a));
        }
        assert_eq!(Action::decode("warp 9"), None);
    }

    #[test]
    fn bounds_are_validated() {
        assert!(McConfig {
            nodes: 7,
            ..McConfig::default()
        }
        .validate()
        .is_err());
        assert!(McConfig {
            rf: 5,
            nodes: 4,
            ..McConfig::default()
        }
        .validate()
        .is_err());
        assert!(McConfig::default().validate().is_ok());
    }
}
