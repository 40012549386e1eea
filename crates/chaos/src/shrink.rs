//! Delta-debugging: reduce a failing [`FaultPlan`] to a locally-minimal
//! witness that still fails with the *same* failure key.
//!
//! Two phases, iterated to a fixpoint:
//!
//! 1. **ddmin over events** — Zeller's minimizing delta debugging on the
//!    event list: try dropping chunks at increasing granularity, keeping
//!    any reduction that still reproduces.
//! 2. **Field shrinking** — for each surviving event, try a small fixed
//!    ladder of simpler values (earlier landing time, shorter or
//!    boundary-aligned durations), keeping whatever still reproduces.
//!
//! Every probe is a full deterministic engine run judged by
//! [`crate::run::Verdict::failure_key`], so the minimal plan provably triggers the
//! same invariant (or panic class) as the original — shrinking can never
//! "succeed" by wandering onto a different bug. Both phases are
//! deterministic given the same inputs, which makes the shrinker
//! idempotent: re-shrinking a minimal plan returns it unchanged.

use crate::run::{run_plan, ChaosEnv, Verdict};
use crate::ChaosConfig;
use dare_mapred::{FaultEvent, FaultPlan};

/// What the shrinker did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Events in the original failing plan.
    pub original_events: usize,
    /// Events in the minimal plan.
    pub minimal_events: usize,
    /// Engine runs spent probing candidates.
    pub probes: u64,
}

/// Shrink `plan` (which must fail with `target_key`) to a locally-minimal
/// plan with the same failure key. Returns the minimal plan and stats.
pub fn shrink_plan(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    plan: &FaultPlan,
    target_key: &str,
) -> (FaultPlan, ShrinkStats) {
    let original_events = plan.events.len();
    let mut probes = 0u64;
    let mut current = plan.clone();

    loop {
        let before = current.clone();
        current = ddmin_events(cfg, env, &current, target_key, &mut probes);
        current = shrink_fields(cfg, env, &current, target_key, &mut probes);
        if current.events == before.events {
            break;
        }
    }

    let minimal_events = current.events.len();
    (
        current,
        ShrinkStats {
            original_events,
            minimal_events,
            probes,
        },
    )
}

/// Does `candidate` still fail the same way? Invalid candidates (a rack
/// fault whose rack lost meaning, say) simply don't reproduce, and are
/// not counted as probes.
fn reproduces(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    candidate: &FaultPlan,
    target_key: &str,
    probes: &mut u64,
) -> bool {
    let (outcome, _) = run_plan(cfg, env, candidate, false);
    if matches!(outcome.verdict, Verdict::Invalid { .. }) {
        return false;
    }
    *probes += 1;
    outcome.verdict.failure_key().as_deref() == Some(target_key)
}

/// Minimizing delta debugging over the event list.
fn ddmin_events(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    plan: &FaultPlan,
    target_key: &str,
    probes: &mut u64,
) -> FaultPlan {
    let mut events = plan.events.clone();
    let mut granularity = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            let mut candidate_events: Vec<FaultEvent> = Vec::with_capacity(events.len());
            candidate_events.extend_from_slice(&events[..start]);
            candidate_events.extend_from_slice(&events[end..]);
            let candidate = with_events(plan, candidate_events);
            if !candidate.events.is_empty() && reproduces(cfg, env, &candidate, target_key, probes)
            {
                events = candidate.events;
                granularity = granularity.max(2).min(events.len().max(2));
                reduced = true;
                // Re-scan from the front at the same granularity.
                start = 0;
            } else {
                start = end;
            }
        }
        if !reduced {
            if granularity >= events.len() {
                break;
            }
            granularity = (granularity * 2).min(events.len());
        }
    }
    // Single events still shrink by deletion when the plan fails with
    // zero faults (possible only for panic-class bugs; probe anyway).
    with_events(plan, events)
}

/// Per-event value shrinking: walk each event's candidate ladder, keeping
/// any simplification that still reproduces, until a full pass accepts
/// nothing.
fn shrink_fields(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    plan: &FaultPlan,
    target_key: &str,
    probes: &mut u64,
) -> FaultPlan {
    let mut current = plan.clone();
    loop {
        let mut accepted = false;
        for i in 0..current.events.len() {
            for replacement in simpler_variants(&current.events[i], env) {
                if replacement == current.events[i] {
                    continue;
                }
                let mut events = current.events.clone();
                events[i] = replacement.clone();
                let candidate = with_events(&current, events);
                if reproduces(cfg, env, &candidate, target_key, probes) {
                    current = candidate;
                    accepted = true;
                }
            }
        }
        if !accepted {
            return current;
        }
    }
}

fn with_events(template: &FaultPlan, events: Vec<FaultEvent>) -> FaultPlan {
    let mut plan = template.clone();
    plan.events = events;
    plan
}

/// Candidate time values: earliest possible, then halving.
fn simpler_times(at: u64) -> Vec<u64> {
    let mut v = Vec::new();
    if at > 1 {
        v.push(1);
        if at / 2 > 1 {
            v.push(at / 2);
        }
    }
    v
}

/// Candidate durations: minimal, just past the declare-dead boundary
/// (where the interesting races live), then halving.
fn simpler_durations(secs: u64, timeout: u64) -> Vec<u64> {
    let mut v = Vec::new();
    if secs > 1 {
        v.push(1);
    }
    if secs > timeout + 1 {
        v.push(timeout + 1);
    }
    if secs / 2 >= 1 && secs / 2 != secs {
        v.push(secs / 2);
    }
    v.dedup();
    v
}

/// The fixed ladder of simpler variants of one event.
fn simpler_variants(ev: &FaultEvent, env: &ChaosEnv) -> Vec<FaultEvent> {
    let t = env.timeout_secs;
    let mut out = Vec::new();
    match ev {
        FaultEvent::Kill { at_secs, node } => {
            for at in simpler_times(*at_secs) {
                out.push(FaultEvent::Kill {
                    at_secs: at,
                    node: *node,
                });
            }
        }
        FaultEvent::Crash {
            at_secs,
            node,
            down_secs,
        } => {
            for at in simpler_times(*at_secs) {
                out.push(FaultEvent::Crash {
                    at_secs: at,
                    node: *node,
                    down_secs: *down_secs,
                });
            }
            for d in simpler_durations(*down_secs, t) {
                out.push(FaultEvent::Crash {
                    at_secs: *at_secs,
                    node: *node,
                    down_secs: d,
                });
            }
        }
        FaultEvent::RackOutage {
            at_secs,
            rack,
            down_secs,
        } => {
            for at in simpler_times(*at_secs) {
                out.push(FaultEvent::RackOutage {
                    at_secs: at,
                    rack: *rack,
                    down_secs: *down_secs,
                });
            }
            for d in simpler_durations(*down_secs, t) {
                out.push(FaultEvent::RackOutage {
                    at_secs: *at_secs,
                    rack: *rack,
                    down_secs: d,
                });
            }
        }
        FaultEvent::Slowdown {
            at_secs,
            node,
            factor,
            duration_secs,
        } => {
            for at in simpler_times(*at_secs) {
                out.push(FaultEvent::Slowdown {
                    at_secs: at,
                    node: *node,
                    factor: *factor,
                    duration_secs: *duration_secs,
                });
            }
            if let Some(d) = duration_secs {
                for nd in simpler_durations(*d, t) {
                    out.push(FaultEvent::Slowdown {
                        at_secs: *at_secs,
                        node: *node,
                        factor: *factor,
                        duration_secs: Some(nd),
                    });
                }
            }
        }
        FaultEvent::CorruptReplica {
            at_secs,
            node,
            block,
        } => {
            for at in simpler_times(*at_secs) {
                out.push(FaultEvent::CorruptReplica {
                    at_secs: at,
                    node: *node,
                    block: *block,
                });
            }
        }
        FaultEvent::Partition {
            at_secs,
            racks_a,
            racks_b,
            heal_secs,
        } => {
            for at in simpler_times(*at_secs) {
                out.push(FaultEvent::Partition {
                    at_secs: at,
                    racks_a: racks_a.clone(),
                    racks_b: racks_b.clone(),
                    heal_secs: *heal_secs,
                });
            }
            for d in simpler_durations(*heal_secs, t) {
                out.push(FaultEvent::Partition {
                    at_secs: *at_secs,
                    racks_a: racks_a.clone(),
                    racks_b: racks_b.clone(),
                    heal_secs: d,
                });
            }
        }
        FaultEvent::GrayNode {
            at_secs,
            node,
            secs,
            disk_factor,
            nic_factor,
        } => {
            for at in simpler_times(*at_secs) {
                out.push(FaultEvent::GrayNode {
                    at_secs: at,
                    node: *node,
                    secs: *secs,
                    disk_factor: *disk_factor,
                    nic_factor: *nic_factor,
                });
            }
            for d in simpler_durations(*secs, t) {
                out.push(FaultEvent::GrayNode {
                    at_secs: *at_secs,
                    node: *node,
                    secs: d,
                    disk_factor: *disk_factor,
                    nic_factor: *nic_factor,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_and_duration_ladders_are_monotone() {
        assert_eq!(simpler_times(1), Vec::<u64>::new());
        assert_eq!(simpler_times(2), vec![1]);
        assert_eq!(simpler_times(100), vec![1, 50]);
        assert_eq!(simpler_durations(1, 30), Vec::<u64>::new());
        assert_eq!(simpler_durations(120, 30), vec![1, 31, 60]);
        assert_eq!(simpler_durations(8, 30), vec![1, 4]);
    }
}
