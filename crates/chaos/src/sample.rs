//! Schedule sampling: run index → valid-by-construction [`FaultPlan`].
//!
//! Validity is guaranteed structurally rather than by rejection:
//! availability faults (kill, crash, rack outage, partition) each claim
//! their target nodes for the whole campaign horizon, so no two windows
//! can overlap on one node; gray episodes and slowdowns claim their own
//! per-kind node sets; corruption targets index the real ingested block
//! namespace. Every random draw comes from the run's own named substream,
//! so `(seed, knobs, run)` fully determines the schedule — byte for byte,
//! on any thread.

use crate::run::ChaosEnv;
use crate::{ChaosConfig, Kind};
use dare_mapred::{FaultEvent, FaultPlan};
use dare_simcore::DetRng;

/// Sample the fault schedule of run `run`.
pub fn sample_plan(cfg: &ChaosConfig, env: &ChaosEnv, run: u64) -> FaultPlan {
    let mut rng = DetRng::new(cfg.seed).substream_idx("chaos-run", run);
    let kinds = cfg.alphabet.enabled();
    let max_events = (2.0 * cfg.density).round().max(1.0) as usize;
    let target = 1 + rng.index(max_events);

    // One recovery stream is the regime where repair-queue races live;
    // the seeded-bug pipeline check pins it there.
    let max_recovery_streams = if cfg.seeded_bug {
        1
    } else {
        [1, 2, 4][rng.index(3)]
    };
    let mut plan = FaultPlan {
        max_recovery_streams,
        ..FaultPlan::default()
    };

    // Per-kind claimed node sets (see module docs).
    let mut avail_used = vec![false; cfg.nodes as usize];
    let mut slow_used = vec![false; cfg.nodes as usize];
    let mut gray_used = vec![false; cfg.nodes as usize];

    for _ in 0..target {
        let kind = kinds[rng.index(kinds.len())];
        if let Some(ev) = sample_event(
            cfg,
            env,
            &mut rng,
            kind,
            &mut avail_used,
            &mut slow_used,
            &mut gray_used,
        ) {
            plan.events.push(ev);
        }
    }
    // A schedule with zero faults fuzzes nothing: fall back to one
    // transient crash (always placeable — the availability set is empty
    // when every draw above failed).
    if plan.events.is_empty() {
        let node = rng.index(cfg.nodes as usize) as u32;
        avail_used[node as usize] = true;
        plan.events.push(FaultEvent::Crash {
            at_secs: at(&mut rng, cfg),
            node,
            down_secs: outage_secs(&mut rng, env),
        });
    }
    plan
}

fn sample_event(
    cfg: &ChaosConfig,
    env: &ChaosEnv,
    rng: &mut DetRng,
    kind: Kind,
    avail_used: &mut [bool],
    slow_used: &mut [bool],
    gray_used: &mut [bool],
) -> Option<FaultEvent> {
    match kind {
        Kind::Kill => {
            let node = claim_node(rng, avail_used)?;
            Some(FaultEvent::Kill {
                at_secs: at(rng, cfg),
                node,
            })
        }
        Kind::Crash => {
            let node = claim_node(rng, avail_used)?;
            Some(FaultEvent::Crash {
                at_secs: at(rng, cfg),
                node,
                down_secs: outage_secs(rng, env),
            })
        }
        Kind::RackOutage => {
            let rack = claim_rack(rng, env, avail_used)?;
            Some(FaultEvent::RackOutage {
                at_secs: at(rng, cfg),
                rack,
                down_secs: outage_secs(rng, env),
            })
        }
        Kind::Partition => {
            let rack_b = claim_rack(rng, env, avail_used)?;
            // Any *other* populated rack anchors the master's side.
            let side_a: Vec<u32> = (0..env.racks.len() as u32)
                .filter(|&r| r != rack_b && !env.racks[r as usize].is_empty())
                .collect();
            if side_a.is_empty() {
                return None;
            }
            let rack_a = side_a[rng.index(side_a.len())];
            Some(FaultEvent::Partition {
                at_secs: at(rng, cfg),
                racks_a: vec![rack_a],
                racks_b: vec![rack_b],
                heal_secs: outage_secs(rng, env),
            })
        }
        Kind::Slowdown => {
            let node = claim_node(rng, slow_used)?;
            Some(FaultEvent::Slowdown {
                at_secs: at(rng, cfg),
                node,
                factor: rng.uniform_range(1.5, 8.0),
                duration_secs: if rng.coin(0.7) {
                    Some(5 + rng.index(116) as u64)
                } else {
                    None
                },
            })
        }
        Kind::Corrupt => Some(FaultEvent::CorruptReplica {
            at_secs: at(rng, cfg),
            node: rng.index(cfg.nodes as usize) as u32,
            block: rng.index(env.blocks as usize) as u64,
        }),
        Kind::Gray => {
            let node = claim_node(rng, gray_used)?;
            Some(FaultEvent::GrayNode {
                at_secs: at(rng, cfg),
                node,
                secs: 5 + rng.index(116) as u64,
                disk_factor: rng.uniform_range(1.5, 10.0),
                nic_factor: rng.uniform_range(1.5, 10.0),
            })
        }
    }
}

/// A fault landing time within the horizon.
fn at(rng: &mut DetRng, cfg: &ChaosConfig) -> u64 {
    1 + rng.index(cfg.horizon_secs as usize) as u64
}

/// A transient outage/heal duration, biased toward the declare-dead
/// boundary: half the draws land just past the timeout, where the
/// declared-then-rejoin reconciliation races live; the rest spread
/// uniformly so rejoin-before-declare stays covered too.
fn outage_secs(rng: &mut DetRng, env: &ChaosEnv) -> u64 {
    if rng.coin(0.5) {
        env.timeout_secs + 1 + rng.index(6) as u64
    } else {
        5 + rng.index(116) as u64
    }
}

/// Claim a random unclaimed node, if any remain.
fn claim_node(rng: &mut DetRng, used: &mut [bool]) -> Option<u32> {
    let free: Vec<u32> = (0..used.len() as u32)
        .filter(|&n| !used[n as usize])
        .collect();
    if free.is_empty() {
        return None;
    }
    let node = free[rng.index(free.len())];
    used[node as usize] = true;
    Some(node)
}

/// Claim a random populated rack whose members are all unclaimed, if any.
fn claim_rack(rng: &mut DetRng, env: &ChaosEnv, used: &mut [bool]) -> Option<u32> {
    let free: Vec<u32> = (0..env.racks.len() as u32)
        .filter(|&r| {
            let members = &env.racks[r as usize];
            !members.is_empty() && members.iter().all(|&n| !used[n as usize])
        })
        .collect();
    if free.is_empty() {
        return None;
    }
    let rack = free[rng.index(free.len())];
    for &n in &env.racks[rack as usize] {
        used[n as usize] = true;
    }
    Some(rack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ChaosEnv;

    fn cfg() -> ChaosConfig {
        ChaosConfig {
            nodes: 24,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn sampled_plans_always_validate() {
        let cfg = cfg();
        let env = ChaosEnv::new(&cfg);
        for run in 0..200 {
            let plan = sample_plan(&cfg, &env, run);
            assert!(!plan.events.is_empty(), "run {run} sampled no faults");
            if let Err(e) = crate::run::build_engine(&cfg, &env, &plan, false) {
                panic!("run {run} sampled an invalid plan: {e}");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_run_index() {
        let cfg = cfg();
        let env = ChaosEnv::new(&cfg);
        for run in [0, 1, 17, 123] {
            let a = sample_plan(&cfg, &env, run);
            let b = sample_plan(&cfg, &env, run);
            assert_eq!(a, b);
            assert_eq!(a.to_json(), b.to_json(), "byte-identical serialization");
        }
        assert_ne!(
            sample_plan(&cfg, &env, 0),
            sample_plan(&cfg, &env, 1),
            "distinct runs draw distinct schedules"
        );
    }

    #[test]
    fn full_alphabet_appears_across_a_campaign() {
        let cfg = ChaosConfig {
            density: 8.0,
            ..cfg()
        };
        let env = ChaosEnv::new(&cfg);
        let mut seen = [false; 7];
        for run in 0..300 {
            for ev in sample_plan(&cfg, &env, run).events {
                let i = match ev {
                    FaultEvent::Kill { .. } => 0,
                    FaultEvent::Crash { .. } => 1,
                    FaultEvent::RackOutage { .. } => 2,
                    FaultEvent::Slowdown { .. } => 3,
                    FaultEvent::CorruptReplica { .. } => 4,
                    FaultEvent::Partition { .. } => 5,
                    FaultEvent::GrayNode { .. } => 6,
                };
                seen[i] = true;
            }
        }
        assert_eq!(seen, [true; 7], "every fault kind sampled: {seen:?}");
    }
}
