//! End-to-end pipeline properties: the seeded bug is found, shrunk to a
//! near-singleton plan, exported, and replay-verified; the whole fuzzer
//! is deterministic in `(seed, knobs)` regardless of thread count; and
//! the shrinker is idempotent.

use dare_chaos::{fuzz, replay_counterexample, sample_plan, shrink_plan, ChaosConfig, ChaosEnv};

fn seeded() -> ChaosConfig {
    ChaosConfig {
        nodes: 24,
        budget_runs: 16,
        seeded_bug: true,
        ..ChaosConfig::default()
    }
}

#[test]
fn seeded_bug_is_found_shrunk_and_replayed() {
    let cfg = seeded();
    let report = fuzz(&cfg).unwrap();
    let v = report
        .violation
        .expect("seeded bug must be found within the smoke budget");

    assert!(
        v.shrink.minimal_events <= 3,
        "minimal plan has {} events (wanted <= 3)",
        v.shrink.minimal_events
    );
    assert_eq!(v.minimal_plan.events.len(), v.shrink.minimal_events);
    assert!(
        v.key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
        "failure key {} is an invariant name",
        v.key
    );
    assert!(v.replay_verified, "replay diverged: {:?}", v.replay_diff);

    // The exported artifacts round-trip: the plan JSON parses, and an
    // independent replay from the counterexample text alone reproduces
    // the same failure key with a byte-identical trace.
    dare_mapred::FaultPlan::from_json(&v.plan_json).unwrap();
    let replay = replay_counterexample(&cfg, &v.counterexample).unwrap();
    assert!(replay.reproduced);
    assert_eq!(replay.failure_key.as_deref(), Some(v.key.as_str()));
    assert_eq!(replay.expected_key.as_deref(), Some(v.key.as_str()));
    assert!(replay.diff.is_none(), "trace diverged: {:?}", replay.diff);
}

#[test]
fn fuzzer_is_thread_count_invariant() {
    let one = fuzz(&ChaosConfig {
        threads: 1,
        ..seeded()
    })
    .unwrap();
    let four = fuzz(&ChaosConfig {
        threads: 4,
        ..seeded()
    })
    .unwrap();
    let (a, b) = (one.violation.unwrap(), four.violation.unwrap());
    assert_eq!(a.run, b.run, "same first failing run");
    assert_eq!(a.key, b.key);
    assert_eq!(a.plan, b.plan, "same sampled schedule, byte for byte");
    assert_eq!(a.minimal_plan, b.minimal_plan);
    assert_eq!(a.plan_json, b.plan_json);
    assert_eq!(
        a.counterexample, b.counterexample,
        "identical exported bytes"
    );
    assert_eq!(a.shrink, b.shrink);
}

#[test]
fn schedules_are_byte_identical_across_processes_and_threads() {
    // sample_plan depends only on (seed, knobs, run) — no global state.
    let cfg = ChaosConfig {
        nodes: 24,
        ..ChaosConfig::default()
    };
    let env = ChaosEnv::new(&cfg);
    let serial: Vec<String> = (0..32)
        .map(|r| sample_plan(&cfg, &env, r).to_json())
        .collect();
    let parallel = dare_simcore::parallel::parallel_map_threads((0..32u64).collect(), 4, |r| {
        sample_plan(&cfg, &env, r).to_json()
    });
    assert_eq!(serial, parallel);
}

#[test]
fn shrinker_is_idempotent() {
    let cfg = seeded();
    let env = ChaosEnv::new(&cfg);
    let report = fuzz(&cfg).unwrap();
    let v = report.violation.unwrap();

    let (again, stats) = shrink_plan(&cfg, &env, &v.minimal_plan, &v.key);
    assert_eq!(
        again, v.minimal_plan,
        "re-shrinking a minimal plan is a no-op"
    );
    assert_eq!(stats.original_events, v.shrink.minimal_events);
    assert_eq!(stats.minimal_events, v.shrink.minimal_events);
}
