//! `Engine: Clone` forks a run: a clone taken at any event boundary,
//! stepped in lockstep with its original, reaches the same state after
//! every event and ends with the same results.
//!
//! The run is DARE-LRU under Fair with every stateful subsystem armed: a
//! fault plan (kill, transient crash, slowdown, silent corruption), the
//! block scanner, speculative execution, the per-event invariant checks,
//! the trace and the telemetry sampler. Clones are taken at several
//! points, each from the previous clone, so a clone of a clone is
//! covered too.

use dare_core::PolicyKind;
use dare_mapred::config::SpeculationConfig;
use dare_mapred::{
    Engine, FaultEvent, FaultPlan, ScannerConfig, SchedulerKind, SimConfig, SimResult, StepOutcome,
    TelemetryConfig,
};
use dare_net::MB;
use dare_simcore::{SimDuration, SimTime};
use dare_workload::{FileSpec, JobSpec, Workload};

/// Four files of four blocks; sixteen jobs, one every five seconds.
fn workload() -> Workload {
    let file = |i| FileSpec {
        name: format!("f{i}"),
        size_bytes: 4 * 128 * MB,
    };
    let job = |id: u32| JobSpec {
        id,
        arrival: SimTime::from_secs(id as u64 * 5),
        file: id as usize % 4,
        map_compute: SimDuration::from_secs(20),
        reduces: 1,
        output_bytes: 10 * MB,
    };
    let (files, jobs) = ((0..4).map(file).collect(), (0..16).map(job).collect());
    Workload {
        name: "clone".into(),
        files,
        jobs,
    }
}

fn config(faults: FaultPlan) -> SimConfig {
    let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 11)
        .with_faults(faults)
        .with_scanner(ScannerConfig {
            period: SimDuration::from_secs(15),
            bytes_per_sec: 32 << 20,
        })
        .with_speculation(SpeculationConfig {
            slowdown_factor: 1.2,
            min_elapsed_secs: 2.0,
        })
        .with_invariant_checks()
        .with_trace()
        .with_telemetry(TelemetryConfig::default());
    cfg.budget_frac = 1.0;
    cfg
}

fn engine() -> Engine {
    let wl = workload();
    // Rot a replica block 0 really has, so a read or the scrubber finds it.
    let holder = {
        let probe = Engine::new(config(FaultPlan::default()), &wl);
        (0..19)
            .find(|&n| probe.block_present(n, 0))
            .expect("block 0 is stored")
    };
    let faults = FaultPlan {
        events: vec![
            FaultEvent::CorruptReplica {
                at_secs: 5,
                node: holder,
                block: 0,
            },
            FaultEvent::Slowdown {
                at_secs: 10,
                node: 4,
                factor: 8.0,
                duration_secs: None,
            },
            FaultEvent::Crash {
                at_secs: 20,
                node: 7,
                down_secs: 60,
            },
            FaultEvent::Kill {
                at_secs: 40,
                node: 2,
            },
        ],
        ..FaultPlan::default()
    };
    Engine::new(config(faults), &wl)
}

fn step(eng: &mut Engine) -> StepOutcome {
    eng.step().expect("invariants hold at every event")
}

fn assert_same_result(a: SimResult, b: SimResult, label: &str) {
    assert_eq!(a.run, b.run, "{label}: run metrics");
    assert_eq!(a.dfs_fingerprint, b.dfs_fingerprint, "{label}: dfs");
    assert_eq!(a.faults, b.faults, "{label}: fault counters");
    assert_eq!(a.sched_offers, b.sched_offers, "{label}: slot offers");
    assert_eq!(a.sched_probes, b.sched_probes, "{label}: probes");
    assert_eq!(a.flow_rerates, b.flow_rerates, "{label}: flow re-rates");
    assert_eq!(a.logical_events, b.logical_events, "{label}: events");
    assert_eq!(
        (a.replicas_created, a.evictions, a.speculative_launches),
        (b.replicas_created, b.evictions, b.speculative_launches),
        "{label}: replication and speculation counters"
    );
    let trace = |r: &SimResult| dare_trace::to_jsonl(r.trace.as_ref().expect("traced"));
    assert!(trace(&a) == trace(&b), "{label}: traces differ");
    let telem = |r: &SimResult| r.telemetry.as_ref().expect("sampled").to_jsonl();
    assert!(telem(&a) == telem(&b), "{label}: telemetry differs");
}

#[test]
fn clones_step_in_lockstep_with_their_original() {
    // Count the events of the whole run first, to place the fork points.
    let mut probe = engine();
    let mut total = 0usize;
    while step(&mut probe) == StepOutcome::Progressed {
        total += 1;
    }
    assert!(
        total > 1_000,
        "a run long enough to fork in: {total} events"
    );
    let forks = [0, total / 5, total / 2, total - 10];

    let mut original = engine();
    let mut clones: Vec<(usize, Engine)> = Vec::new();
    let mut k = 0usize;
    loop {
        if forks.contains(&k) {
            let source = clones.last().map_or(&original, |(_, e)| e);
            assert_eq!(source.state_fingerprint(), original.state_fingerprint());
            clones.push((k, source.clone()));
        }
        let outcome = step(&mut original);
        let fp = original.state_fingerprint();
        for (at, clone) in &mut clones {
            assert_eq!(
                step(clone),
                outcome,
                "clone from event {at}: outcome at {k}"
            );
            assert_eq!(
                clone.state_fingerprint(),
                fp,
                "clone from event {at}: state at {k}"
            );
        }
        if outcome == StepOutcome::Quiescent {
            break;
        }
        k += 1;
    }
    assert_eq!(k, total);
    assert_eq!(clones.len(), forks.len());
    let want = original.try_run().expect("quiescent run finishes");
    // Every armed subsystem did something worth forking.
    assert!(want.faults.nodes_declared_dead > 0 && want.faults.nodes_rejoined > 0);
    assert!(want.faults.scrub_detections > 0 && want.faults.blocks_re_replicated > 0);
    assert!(want.speculative_launches > 0 && want.replicas_created > 0);
    for (at, clone) in clones {
        let got = clone.try_run().expect("quiescent run finishes");
        assert_same_result(got, want.clone(), &format!("clone from event {at}"));
    }
}
