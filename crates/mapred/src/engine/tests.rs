use super::*;
use crate::config::SchedulerKind;
use dare_core::PolicyKind;
use dare_net::MB;
use dare_workload::{FileSpec, JobSpec};
use std::collections::HashMap;

/// A small deterministic workload: `files` files of `blocks` blocks,
/// `jobs` jobs hammering file 0 mostly (high skew).
fn tiny_workload(files: usize, blocks: u64, jobs: u32) -> Workload {
    let bs = 128 * MB;
    let file_specs: Vec<FileSpec> = (0..files)
        .map(|i| FileSpec {
            name: format!("f{i}"),
            size_bytes: blocks * bs,
        })
        .collect();
    let job_specs: Vec<JobSpec> = (0..jobs)
        .map(|id| JobSpec {
            id,
            arrival: SimTime::from_secs(id as u64 * 10),
            file: if id % 4 == 0 {
                (id as usize / 4) % files
            } else {
                0
            },
            map_compute: SimDuration::from_secs(20),
            reduces: 1,
            output_bytes: 10 * MB,
        })
        .collect();
    Workload {
        name: "tiny".into(),
        files: file_specs,
        jobs: job_specs,
    }
}

fn run_cfg(policy: PolicyKind, sched: SchedulerKind, seed: u64) -> SimResult {
    let mut cfg = SimConfig::cct(policy, sched, seed);
    // The test dataset is tiny (24 blocks over 19 nodes); at the paper's
    // 0.2 budget a node's budget would be smaller than one block, so use
    // a full-share budget to exercise the replication paths.
    cfg.budget_frac = 1.0;
    crate::run(cfg, &tiny_workload(8, 3, 40))
}

#[test]
fn all_jobs_complete_and_metrics_sane() {
    let r = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
    assert_eq!(r.run.jobs, 40);
    assert_eq!(r.run.maps, 120);
    assert!((0.0..=1.0).contains(&r.run.locality));
    assert!(r.run.gmtt_secs > 0.0);
    assert!(
        r.run.mean_slowdown >= 0.99,
        "slowdown {}",
        r.run.mean_slowdown
    );
    assert!(r.run.makespan_secs > 0.0);
    // locality counters per job sum to maps
    for o in &r.outcomes {
        assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
    }
}

#[test]
fn vanilla_creates_no_replicas() {
    let r = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 2);
    assert_eq!(r.replicas_created, 0);
    assert_eq!(r.final_dynamic_bytes, 0);
    assert_eq!(r.blocks_per_job, 0.0);
}

#[test]
fn greedy_replicates_and_improves_locality() {
    let v = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 3);
    let d = run_cfg(PolicyKind::GreedyLru, SchedulerKind::Fifo, 3);
    assert!(d.replicas_created > 0, "greedy must replicate");
    assert!(
        d.run.locality > v.run.locality + 0.1,
        "DARE {} vs vanilla {}",
        d.run.locality,
        v.run.locality
    );
}

#[test]
fn elephant_trap_replicates_less_than_greedy() {
    let g = run_cfg(PolicyKind::GreedyLru, SchedulerKind::Fifo, 4);
    let e = run_cfg(
        PolicyKind::ElephantTrap {
            p: 0.3,
            threshold: 1,
        },
        SchedulerKind::Fifo,
        4,
    );
    assert!(e.replicas_created > 0);
    assert!(
        e.replicas_created < g.replicas_created,
        "sampling cuts writes: et={} lru={}",
        e.replicas_created,
        g.replicas_created
    );
}

#[test]
fn fair_scheduler_beats_fifo_locality_on_vanilla() {
    let f = run_cfg(PolicyKind::Vanilla, SchedulerKind::Fifo, 5);
    let d = run_cfg(PolicyKind::Vanilla, SchedulerKind::fair_default(), 5);
    assert!(
        d.run.locality > f.run.locality,
        "delay scheduling helps: fair={} fifo={}",
        d.run.locality,
        f.run.locality
    );
}

#[test]
fn deterministic_given_seed() {
    let a = run_cfg(PolicyKind::elephant_default(), SchedulerKind::Fifo, 7);
    let b = run_cfg(PolicyKind::elephant_default(), SchedulerKind::Fifo, 7);
    assert_eq!(a.run.locality, b.run.locality);
    assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
    assert_eq!(a.replicas_created, b.replicas_created);
    let c = run_cfg(PolicyKind::elephant_default(), SchedulerKind::Fifo, 8);
    assert!(
        a.run.gmtt_secs != c.run.gmtt_secs || a.replicas_created != c.replicas_created,
        "different seeds should differ somewhere"
    );
}

#[test]
fn scheduler_work_counters_repeat_per_seed() {
    for sched in [SchedulerKind::Fifo, SchedulerKind::fair_default()] {
        let a = run_cfg(PolicyKind::GreedyLru, sched, 11);
        let b = run_cfg(PolicyKind::GreedyLru, sched, 11);
        assert_eq!(a.sched_offers, b.sched_offers, "{sched:?}: offers");
        assert_eq!(a.sched_probes, b.sched_probes, "{sched:?}: probes");
        assert_eq!(a.flow_rerates, b.flow_rerates, "{sched:?}: flow re-rates");
        assert!(a.flow_rerates > 0, "{sched:?}: remote reads re-rate flows");
        // Every launched map was one accepted offer and one probe.
        assert!(a.sched_offers >= a.run.maps, "{sched:?}");
        assert!(a.sched_probes >= a.run.maps, "{sched:?}");
    }
}

#[test]
fn ec2_profile_runs() {
    let cfg = SimConfig::ec2(PolicyKind::elephant_default(), SchedulerKind::Fifo, 9);
    let r = crate::run(cfg, &tiny_workload(8, 3, 20));
    assert_eq!(r.run.jobs, 20);
    assert!((0.0..=1.0).contains(&r.run.locality));
}

#[test]
fn turnaround_improves_with_replication_under_load() {
    // Heavier load so remote-read contention matters.
    let w = tiny_workload(6, 4, 60);
    let v = crate::run(
        SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 10),
        &w,
    );
    let d = crate::run(
        SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 10),
        &w,
    );
    assert!(
        d.run.gmtt_secs <= v.run.gmtt_secs * 1.02,
        "replication shouldn't hurt turnaround: dare {} vanilla {}",
        d.run.gmtt_secs,
        v.run.gmtt_secs
    );
}

#[test]
fn node_failures_reexecute_tasks_and_finish_all_jobs() {
    let wl = tiny_workload(8, 3, 40);
    // Fail three nodes while the trace is in full swing.
    let cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 31).with_failures(vec![
        (40, 2),
        (90, 7),
        (150, 11),
    ]);
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs, 40, "every job completes despite failures");
    for o in &r.outcomes {
        assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
    }
    assert!((0.0..=1.0).contains(&r.run.locality));
}

#[test]
fn failures_are_deterministic_too() {
    let wl = tiny_workload(8, 3, 30);
    let run = || {
        let cfg = SimConfig::cct(
            PolicyKind::elephant_default(),
            SchedulerKind::fair_default(),
            77,
        )
        .with_failures(vec![(30, 0), (60, 5)]);
        crate::run(cfg, &wl)
    };
    let a = run();
    let b = run();
    assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
    assert_eq!(a.replicas_created, b.replicas_created);
}

#[test]
fn failed_node_serves_no_further_tasks() {
    use dare_trace::{find_first, task_spans, TraceEvent};
    let wl = tiny_workload(6, 2, 30);
    let mut cfg =
        SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 13).with_failures(vec![(1, 4)]);
    cfg.record_trace = true;
    let crash = SimTime::from_secs(1);
    let declare_at = crash + cfg.heartbeat.mul_f64(cfg.faults.detect_heartbeats as f64);
    let r = crate::run(cfg, &wl);
    assert_eq!(r.faults.nodes_declared_dead, 1);

    let trace = r.trace.expect("tracing was on");
    // The silent node never picks up NEW work after the crash...
    let late_launch = find_first(&trace, |rec| {
        matches!(rec.event, TraceEvent::TaskLaunched { node: 4, .. }) && rec.time > crash
    });
    assert!(
        late_launch.is_none(),
        "crashed node must not take new tasks: {late_launch:?}"
    );
    // ...zombie attempts linger between the crash and the declaration,
    // but every node-4 span is closed by the declaration at the latest.
    // (The t=1s crash may land before node 4's first staggered
    // heartbeat, in which case it never launched anything and the loop
    // below is vacuous — the no-new-work check above still bites.)
    let spans = task_spans(&trace);
    let on_victim: Vec<_> = spans.iter().filter(|s| s.node == 4).collect();
    for s in &on_victim {
        let end = s
            .end
            .unwrap_or_else(|| panic!("node-4 attempt left open past declare-dead: {s:?}"));
        assert!(
            end <= declare_at,
            "declared-dead node must hold no attempts: {s:?} ends after {declare_at:?}"
        );
    }
    assert!(r.faults.tasks_retried <= wl.jobs.len() as u64 * 3);
}

#[test]
fn detection_waits_for_the_heartbeat_timeout() {
    use dare_trace::{assert_event_order, TraceEvent};
    let wl = tiny_workload(6, 2, 30);
    let mut cfg =
        SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 19).with_failures(vec![(5, 2)]);
    cfg.record_trace = true;
    let crash = SimTime::from_secs(5);
    let declare_at = crash + cfg.heartbeat.mul_f64(cfg.faults.detect_heartbeats as f64);
    let r = crate::run(cfg, &wl);
    assert_eq!(r.faults.nodes_declared_dead, 1);

    let trace = r.trace.expect("tracing was on");
    let matched = assert_event_order(
        &trace,
        &[
            ("crash", &|rec| {
                matches!(rec.event, TraceEvent::NodeCrashed { node: 2, .. })
            }),
            ("declared-dead", &|rec| {
                matches!(rec.event, TraceEvent::NodeDeclaredDead { node: 2, .. })
            }),
        ],
    );
    assert_eq!(matched[0].time, crash);
    assert_eq!(
        matched[1].time, declare_at,
        "no omniscient namenode: death declared exactly at the missed-heartbeat timeout"
    );
}

#[test]
fn transient_crash_rejoins_and_loses_nothing() {
    let wl = tiny_workload(8, 3, 40);
    let mut cfg =
        SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 91).with_invariant_checks();
    cfg.budget_frac = 1.0;
    // Down for 120s: well past the 30s detection timeout, so the full
    // declare -> re-replicate -> rejoin -> block-report cycle runs.
    cfg.faults.events.push(crate::FaultEvent::Crash {
        at_secs: 30,
        node: 3,
        down_secs: 120,
    });
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
    assert_eq!(r.faults.nodes_declared_dead, 1);
    assert_eq!(r.faults.nodes_rejoined, 1);
    assert_eq!(r.faults.blocks_lost, 0, "a transient crash loses no data");
}

#[test]
fn permanent_kill_re_replicates_through_the_network() {
    let wl = tiny_workload(8, 3, 40);
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 92)
        .with_failures(vec![(40, 6)])
        .with_invariant_checks();
    cfg.faults.detect_heartbeats = 3; // declare quickly so repair runs mid-trace
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
    assert!(
        r.faults.blocks_re_replicated > 0,
        "the killed node's blocks must be repaired"
    );
    assert!(r.faults.recovery_bytes > 0, "repair moves real bytes");
    assert_eq!(r.faults.blocks_lost, 0, "rf=3 survives one kill");
}

#[test]
fn recovery_traffic_contends_with_map_fetches() {
    // Heavily loaded cluster so fetches are in flight when recovery
    // starts; identical seeds, recovery on vs off. Runs are identical
    // up to the declaration instant, so attempts launched before it
    // pair exactly — and some of their reads must finish strictly
    // later once repair traffic shares the fabric.
    let bs = 128 * MB;
    let files: Vec<FileSpec> = (0..8)
        .map(|i| FileSpec {
            name: format!("f{i}"),
            size_bytes: 3 * bs,
        })
        .collect();
    let jobs: Vec<JobSpec> = (0..60u32)
        .map(|id| JobSpec {
            id,
            arrival: SimTime::from_secs(id as u64),
            file: if id % 4 == 0 {
                (id as usize / 4) % 8
            } else {
                0
            },
            map_compute: SimDuration::from_secs(20),
            reduces: 1,
            output_bytes: 10 * MB,
        })
        .collect();
    let wl = Workload {
        name: "contention".into(),
        files,
        jobs,
    };
    let run_with = |streams: usize| {
        let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 93)
            .with_failures(vec![(40, 5)]);
        cfg.record_trace = true;
        cfg.faults.max_recovery_streams = streams;
        // Declare quickly: the repair burst lands while the backlogged
        // cluster still has map fetches in flight.
        cfg.faults.detect_heartbeats = 2;
        crate::run(cfg, &wl)
    };
    let quiet = run_with(0);
    let noisy = run_with(6);
    assert_eq!(quiet.faults.blocks_re_replicated, 0);
    assert!(noisy.faults.blocks_re_replicated > 0);
    assert!(noisy.faults.recovery_bytes > 0);

    let quiet_trace = quiet.trace.expect("tracing was on");
    let noisy_trace = noisy.trace.expect("tracing was on");
    let fetches = |spans: &[dare_trace::FlowSpan]| -> Vec<dare_trace::FlowSpan> {
        spans
            .iter()
            .filter(|s| s.kind == dare_trace::FlowKind::Fetch)
            .cloned()
            .collect()
    };
    let quiet_spans = dare_trace::flow_spans(&quiet_trace);
    let noisy_spans = dare_trace::flow_spans(&noisy_trace);

    // Fetch flows launched before the declaration pair exactly across
    // the two runs (same seed, recovery is the only difference), so
    // "same fetch, later finish" is the contention signal.
    let key = |s: &dare_trace::FlowSpan| (s.ctx, s.dst, s.bytes, s.start);
    let quiet_ends: HashMap<_, _> = fetches(&quiet_spans)
        .iter()
        .map(|s| (key(s), s.end))
        .collect();
    let mut delayed = 0u32;
    for s in fetches(&noisy_spans) {
        if let (Some(Some(q)), Some(n)) = (quiet_ends.get(&key(&s)), s.end) {
            if n > *q {
                delayed += 1;
            }
        }
    }
    assert!(
        delayed > 0,
        "re-replication must measurably delay at least one remote map fetch"
    );

    // And the contention is visible as spans: at least one recovery
    // flow shares the fabric with an in-flight map fetch.
    let overlapping = noisy_spans
        .iter()
        .filter(|r| r.kind == dare_trace::FlowKind::Recovery)
        .any(|r| fetches(&noisy_spans).iter().any(|f| r.overlaps(f)));
    assert!(
        overlapping,
        "a recovery flow must overlap a map fetch in the noisy run"
    );
}

#[test]
fn losing_every_replica_fails_jobs_cleanly() {
    let wl = tiny_workload(8, 3, 40);
    // rf=1 scatters 24 single-copy blocks; find a node that actually
    // holds file-0 blocks (placement is seed-deterministic, so the
    // probe run and the real run place identically).
    let mut probe_cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 94);
    probe_cfg.dfs.replication_factor = 1;
    let probe = Engine::new(probe_cfg, &wl);
    let victim = (0..19u32)
        .find(|&i| !probe.dfs.datanode(NodeId(i)).all_blocks().is_empty())
        .expect("some node holds blocks");
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 94)
        .with_failures(vec![(25, victim)])
        .with_invariant_checks();
    cfg.dfs.replication_factor = 1; // every block single-copy
    let r = crate::run(cfg, &wl);
    assert!(r.faults.blocks_lost > 0, "rf=1 kill must lose blocks");
    assert!(r.faults.jobs_failed > 0, "jobs on lost blocks must fail");
    assert!(r.faults.tasks_failed > 0);
    assert_eq!(r.run.failed_jobs as u64, r.faults.jobs_failed);
    assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
    for o in r
        .outcomes
        .iter()
        .filter(|o| o.status == dare_metrics::JobStatus::Failed)
    {
        assert!(o.completed >= o.arrival);
    }
}

#[test]
fn generated_fault_plans_run_deterministically() {
    let wl = tiny_workload(8, 3, 30);
    let run = || {
        let spec = crate::FaultSpec {
            horizon_secs: 200,
            kills: 1,
            crashes: 2,
            mean_down_secs: 60,
            rack_outages: 1,
            stragglers: 1,
            straggler_factor: 3.0,
            corruption_rate_per_node_hour: 0.0,
        };
        let cfg = SimConfig::ec2(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 95);
        let plan = crate::FaultPlan::generate_valid(&spec, &cfg.topology(), 0, 0xFA57);
        let cfg = cfg.with_faults(plan).with_invariant_checks();
        crate::run(cfg, &wl)
    };
    let a = run();
    let b = run();
    assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
    assert_eq!(a.run.jobs, b.run.jobs);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn failure_with_scarlett_stays_consistent() {
    let wl = tiny_workload(8, 3, 40);
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 15)
        .with_scarlett(crate::scarlett::ScarlettConfig {
            epoch: SimDuration::from_secs(30),
            accesses_per_replica: 2.0,
            max_extra_replicas: 8,
        })
        .with_failures(vec![(45, 3), (100, 9)]);
    cfg.budget_frac = 1.0;
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs, 40);
    assert!(r.proactive.expect("scarlett ran").replicas_created > 0);
}

#[test]
fn degraded_node_slows_and_speculation_rescues() {
    let wl = tiny_workload(8, 3, 40);
    // Node 3 limps at 8x from t=10s.
    let degraded = crate::run(
        SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 51)
            .with_degradations(vec![(10, 3, 8.0)]),
        &wl,
    );
    let healthy = crate::run(
        SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 51),
        &wl,
    );
    assert!(
        degraded.run.gmtt_secs > healthy.run.gmtt_secs * 1.02,
        "limplock must hurt: degraded {} healthy {}",
        degraded.run.gmtt_secs,
        healthy.run.gmtt_secs
    );
    // Speculation claws most of it back.
    let rescued = crate::run(
        SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 51)
            .with_degradations(vec![(10, 3, 8.0)])
            .with_speculation(crate::config::SpeculationConfig {
                slowdown_factor: 1.5,
                min_elapsed_secs: 3.0,
            }),
        &wl,
    );
    assert!(rescued.speculative_launches > 0);
    assert!(
        rescued.run.gmtt_secs < degraded.run.gmtt_secs,
        "speculation helps: rescued {} degraded {}",
        rescued.run.gmtt_secs,
        degraded.run.gmtt_secs
    );
}

#[test]
fn build_rejects_a_rack_outage_overlapping_a_member_crash() {
    // A crash inside a rack outage's window on a member node has no
    // defined epoch order; the engine rejects it against the
    // topology it builds (CCT: one rack holding every node).
    let wl = tiny_workload(2, 2, 4);
    let overlap = crate::FaultPlan {
        events: vec![
            crate::FaultEvent::RackOutage {
                at_secs: 20,
                rack: 0,
                down_secs: 30,
            },
            crate::FaultEvent::Crash {
                at_secs: 30,
                node: 2,
                down_secs: 5,
            },
        ],
        ..crate::FaultPlan::default()
    };
    let cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
    assert!(
        overlap.validate(cfg.profile.nodes).is_ok(),
        "node-only checks pass"
    );
    let err = Engine::try_new(cfg.clone().with_faults(overlap.clone()), &wl)
        .err()
        .expect("overlap rejected");
    assert!(err.to_string().contains("overlapping"), "got: {err}");
    // The crash after the outage heals is fine.
    let mut later = overlap;
    later.events[1] = crate::FaultEvent::Crash {
        at_secs: 60,
        node: 2,
        down_secs: 5,
    };
    assert!(Engine::try_new(cfg.with_faults(later), &wl).is_ok());
}

#[test]
fn try_new_rejects_invalid_scheduler_parameters() {
    // Zero capacity queues, and a rack threshold above the any
    // threshold: both are config errors, not scheduler panics.
    let wl = tiny_workload(2, 2, 4);
    for (kind, what) in [
        (SchedulerKind::Capacity(0), "queue"),
        (
            SchedulerKind::Fair(dare_sched::FairConfig { d1: 5, d2: 1 }),
            "d1 = 5",
        ),
    ] {
        let cfg = SimConfig::cct(PolicyKind::Vanilla, kind, 1);
        match Engine::try_new(cfg, &wl) {
            Err(crate::SimError::InvalidInput(msg)) => {
                assert!(msg.contains(what), "{kind:?}: got {msg}")
            }
            Err(e) => panic!("{kind:?}: wrong error {e}"),
            Ok(_) => panic!("{kind:?}: accepted"),
        }
    }
}

#[test]
fn degradation_rejects_bad_factor() {
    let cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1)
        .with_degradations(vec![(10, 0, 0.5)]);
    assert!(cfg.validate().is_err(), "factor < 1 must be rejected");
}

#[test]
fn speculation_launches_backups_on_straggling_cluster() {
    // EC2 profile: per-node disk bandwidth varies 67-358 MB/s, so slow
    // nodes straggle and speculation fires.
    let wl = tiny_workload(8, 4, 40);
    let cfg = SimConfig::ec2(PolicyKind::Vanilla, SchedulerKind::Fifo, 42).with_speculation(
        crate::config::SpeculationConfig {
            slowdown_factor: 1.2,
            min_elapsed_secs: 2.0,
        },
    );
    let mut engine = Engine::new(cfg, &wl);
    let total = engine.jobs.len();
    while engine.finished < total {
        let (t, ev) = engine.events.pop().expect("events pending");
        engine.now = t;
        engine.dispatch(ev).unwrap();
    }
    assert!(
        engine.speculative_launches > 0,
        "heterogeneous disks must trigger backups"
    );
    // Slots never leak: every node ends with its full slot count.
    for i in 0..engine.nodes.len() {
        assert_eq!(
            engine.nodes.free_map(i),
            engine.cfg.profile.map_slots_per_node,
            "node {i} leaked slots"
        );
    }
}

#[test]
fn speculation_does_not_change_job_counts_or_violate_invariants() {
    let wl = tiny_workload(6, 3, 30);
    let base = crate::run(
        SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 43),
        &wl,
    );
    let spec = crate::run(
        SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 43)
            .with_speculation(Default::default()),
        &wl,
    );
    assert_eq!(base.run.jobs, spec.run.jobs);
    for o in &spec.outcomes {
        assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
    }
    // Backups can only help or match turnaround on a deterministic rig.
    assert!(spec.run.gmtt_secs <= base.run.gmtt_secs * 1.10);
}

#[test]
fn speculation_with_failures_is_stable() {
    let wl = tiny_workload(8, 3, 40);
    let cfg = SimConfig::ec2(
        PolicyKind::elephant_default(),
        SchedulerKind::fair_default(),
        47,
    )
    .with_speculation(Default::default())
    .with_failures(vec![(30, 1), (70, 8), (110, 42)]);
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs, 40);
    for o in &r.outcomes {
        assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
    }
}

#[test]
fn task_spans_cover_every_attempt_with_monotone_milestones() {
    use dare_trace::{task_spans, Loc};
    let wl = tiny_workload(8, 3, 30);
    let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 61);
    cfg.record_trace = true;
    let r = crate::run(cfg, &wl);
    let spans = task_spans(r.trace.as_ref().expect("tracing was on"));
    // No failures/speculation: exactly one attempt per map task.
    assert_eq!(spans.len() as u64, r.run.maps);
    for s in &spans {
        assert!(!s.speculative);
        assert_eq!(s.attempt, 0);
        assert!(s.committed, "attempt completed: {s:?}");
        let read = s.read_done.expect("attempt finished its read");
        let end = s.end.expect("attempt closed");
        assert!(s.start <= read && read <= end);
    }
    // Node-local spans match the locality metric.
    let local = spans.iter().filter(|s| s.loc == Loc::Node).count() as u64;
    let metric_local: u64 = r.outcomes.iter().map(|o| o.node_local as u64).sum();
    assert_eq!(local, metric_local);
}

#[test]
fn task_spans_include_failed_and_speculative_attempts() {
    use dare_trace::task_spans;
    let wl = tiny_workload(8, 3, 30);
    let mut cfg = SimConfig::ec2(PolicyKind::Vanilla, SchedulerKind::Fifo, 62)
        .with_failures(vec![(25, 5)])
        .with_speculation(crate::config::SpeculationConfig {
            slowdown_factor: 1.2,
            min_elapsed_secs: 2.0,
        });
    cfg.record_trace = true;
    let r = crate::run(cfg, &wl);
    let spans = task_spans(r.trace.as_ref().expect("tracing was on"));
    assert!(
        spans.len() as u64 >= r.run.maps,
        "extra attempts appear among the spans"
    );
    let uncommitted = spans.iter().filter(|s| !s.committed).count() as u64;
    assert!(
        uncommitted <= r.faults.tasks_retried + r.speculative_launches,
        "uncommitted spans only from aborts/races"
    );
    if r.faults.tasks_retried > 0 {
        assert!(spans.iter().any(|s| !s.committed), "failed attempts appear");
    }
    if r.speculative_launches > 0 {
        assert!(spans.iter().any(|s| s.speculative));
    }
}

#[test]
fn scarlett_replicates_proactively_and_improves_locality() {
    let wl = tiny_workload(8, 3, 40);
    let vanilla = crate::run(
        SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 21),
        &wl,
    );
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 21).with_scarlett(
        crate::scarlett::ScarlettConfig {
            epoch: SimDuration::from_secs(30),
            accesses_per_replica: 2.0,
            max_extra_replicas: 12,
        },
    );
    cfg.budget_frac = 1.0;
    let scar = crate::run(cfg, &wl);
    let stats = scar.proactive.expect("scarlett stats present");
    assert!(stats.replicas_created > 0, "proactive replication happened");
    assert!(stats.bytes_moved > 0, "proactive replication costs network");
    assert!(
        scar.run.job_locality > vanilla.run.job_locality,
        "scarlett {} vs vanilla {}",
        scar.run.job_locality,
        vanilla.run.job_locality
    );
    // DARE's counters stay at zero: only the proactive scheme ran.
    assert_eq!(scar.replicas_created, 0);
    assert!(vanilla.proactive.is_none());
}

#[test]
fn scarlett_ages_out_cooled_files() {
    // Hot phase on file 0, then a quiet tail: desired counts fall to
    // zero at the next epoch and the replicas get evicted.
    let bs = 128 * MB;
    let files: Vec<dare_workload::FileSpec> = (0..4)
        .map(|i| dare_workload::FileSpec {
            name: format!("f{i}"),
            size_bytes: 2 * bs,
        })
        .collect();
    let mut jobs: Vec<dare_workload::JobSpec> = (0..30u32)
        .map(|id| dare_workload::JobSpec {
            id,
            arrival: SimTime::from_secs(id as u64 * 3),
            file: 0,
            map_compute: SimDuration::from_secs(5),
            reduces: 1,
            output_bytes: MB,
        })
        .collect();
    // Long-delayed closing job so several quiet epochs elapse.
    jobs.push(dare_workload::JobSpec {
        id: 30,
        arrival: SimTime::from_secs(1200),
        file: 1,
        map_compute: SimDuration::from_secs(5),
        reduces: 1,
        output_bytes: MB,
    });
    let wl = Workload {
        name: "cooling".into(),
        files,
        jobs,
    };
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 5).with_scarlett(
        crate::scarlett::ScarlettConfig {
            epoch: SimDuration::from_secs(60),
            accesses_per_replica: 2.0,
            max_extra_replicas: 8,
        },
    );
    cfg.budget_frac = 1.0;
    let r = crate::run(cfg, &wl);
    let stats = r.proactive.expect("scarlett stats");
    assert!(stats.replicas_created > 0);
    assert!(
        stats.evictions > 0,
        "cooled file's replicas must be aged out"
    );
    assert!(
        r.final_dynamic_bytes < stats.replicas_created * 2 * bs,
        "not all proactive replicas survive to the end"
    );
}

#[test]
fn cv_after_not_worse_with_dare() {
    // Greedy converges fastest on 40 jobs; the sampled policy needs the
    // full 500-job traces (Fig. 11) to spread the hot file everywhere.
    let r = run_cfg(PolicyKind::GreedyLru, SchedulerKind::Fifo, 11);
    assert!(r.cv_before > 0.0);
    assert!(
        r.cv_after <= r.cv_before * 1.05,
        "placement uniformity: before {} after {}",
        r.cv_before,
        r.cv_after
    );
}

fn telemetry_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::cct(
        PolicyKind::elephant_default(),
        SchedulerKind::fair_default(),
        seed,
    );
    cfg.budget_frac = 1.0;
    cfg.with_telemetry(crate::config::TelemetryConfig::default())
        .with_self_profile()
}

#[test]
fn telemetry_samples_are_consistent_and_schema_valid() {
    let wl = tiny_workload(8, 3, 40);
    let r = crate::run(telemetry_cfg(5), &wl);
    let t = r.telemetry.as_ref().expect("telemetry recorded");
    assert!(t.ticks() > 10, "a multi-minute run yields many 5s ticks");
    assert_eq!(t.nodes.len(), t.ticks() * 19, "one row per node per tick");
    dare_telemetry::validate_jsonl(&t.to_jsonl()).expect("schema-valid JSONL");

    // Sample times are strictly increasing and interval-aligned except
    // for the terminal sample.
    for w in t.cluster.windows(2) {
        assert!(w[0].t_us < w[1].t_us);
    }
    for row in &t.cluster[..t.ticks() - 1] {
        assert_eq!(row.t_us % t.interval_us, 0, "tick on the sampling grid");
    }

    // The terminal sample's cumulative counters equal the run metrics.
    let last = t.cluster.last().unwrap().t_us;
    let maps_done = t.value(t.ticks() - 1, "maps_done").unwrap().as_f64();
    assert_eq!(maps_done as u64, r.run.maps, "all maps accounted for");
    let terminal_jobs = t.jobs.iter().filter(|j| j.t_us == last).count();
    assert_eq!(terminal_jobs, 40, "every job gets a terminal row");
    assert_eq!(
        r.telemetry_job_locality().unwrap().to_bits(),
        r.run.job_locality.to_bits(),
        "per-job locality re-derived bitwise from telemetry"
    );
    assert_eq!(
        r.telemetry_locality().unwrap().to_bits(),
        r.run.locality.to_bits(),
        "task-weighted locality re-derived bitwise from telemetry"
    );

    // Self-profile accounted every dispatched event to some subsystem.
    let p = r.profile.expect("profile recorded");
    assert!(p.total_events() > 0);
    let (sched_ev, _) = p.of(dare_telemetry::Subsystem::Sched);
    assert!(sched_ev > 0, "heartbeats land in the sched arm");
    dare_telemetry::validate_profile_json(&p.to_json("unit")).expect("valid report");
}

/// Corrupt `take` of each block's primary replicas (probing a throwaway
/// engine for the seed-deterministic placement) and return the events.
fn corrupt_primaries(
    cfg: &SimConfig,
    wl: &Workload,
    file: Option<dare_dfs::FileId>,
    take: usize,
    at_secs: u64,
) -> Vec<crate::FaultEvent> {
    let probe = Engine::new(cfg.clone(), wl);
    let nn = probe.dfs.namenode();
    let mut events = Vec::new();
    for b in 0..nn.num_blocks() as u64 {
        let id = BlockId(b);
        if file.is_some_and(|f| nn.file_of(id) != f) {
            continue;
        }
        for loc in nn.primary_locations(id).iter().take(take) {
            events.push(crate::FaultEvent::CorruptReplica {
                at_secs,
                node: loc.0,
                block: b,
            });
        }
    }
    events
}

#[test]
fn corrupt_local_replica_degrades_to_remote_fetch() {
    use dare_trace::TraceEvent;
    let wl = tiny_workload(8, 3, 40);
    // Seed picked so the trace exhibits a *local* read hitting a bad
    // copy: recovery transfers checksum their source too, so many
    // seeds quarantine every rotted replica via repair reads before
    // any node-local launch lands on one.
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 41);
    // Rot two of the three primaries of every file-0 block before the
    // first heartbeat: the hammered file guarantees node-local launches
    // land on a corrupt holder, and the surviving clean replica keeps
    // every job completable.
    cfg.faults.events = corrupt_primaries(&cfg, &wl, Some(dare_dfs::FileId(0)), 2, 1);
    cfg.record_trace = true;
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs, 40, "a clean replica survives every rot");
    assert!(r.faults.replicas_corrupted > 0);
    assert!(r.faults.checksum_failures > 0, "some read hit a bad copy");
    assert!(r.faults.replicas_quarantined > 0);
    assert_eq!(r.faults.blocks_lost, 0);
    assert_eq!(r.faults.blocks_lost_corruption, 0);

    // Trace-span proof of degradation: a read-open checksum failure on
    // the attempt's own node is followed (same instant) by that very
    // attempt launching with `local_read: false` — the local replica
    // was quarantined out from under it and it fell back to the
    // network path.
    let trace = r.trace.expect("tracing was on");
    let degraded = trace.records().iter().any(|rec| {
        let TraceEvent::ChecksumFailed {
            node,
            job,
            task,
            attempt,
            ..
        } = rec.event
        else {
            return false;
        };
        trace.records().iter().any(|l| {
            l.time == rec.time
                && matches!(
                    l.event,
                    TraceEvent::TaskLaunched {
                        job: j,
                        task: t,
                        attempt: a,
                        node: n,
                        local_read: false,
                        ..
                    } if j == job && t == task && a == attempt && n == node
                )
        })
    });
    assert!(
        degraded,
        "a corrupt local replica must degrade its reader to a remote fetch"
    );
}

#[test]
fn corruption_repair_contends_with_map_fetches() {
    // The corruption analog of recovery_traffic_contends_with_map_fetches:
    // rot one primary of every block mid-trace on a backlogged cluster;
    // reads and scrubs quarantine the copies, and the repair burst must
    // share the fabric with in-flight map fetches. Identical seeds,
    // repair on vs off — runs diverge only at the first repair dispatch,
    // so earlier fetches pair exactly across the two runs.
    let bs = 128 * MB;
    let files: Vec<FileSpec> = (0..8)
        .map(|i| FileSpec {
            name: format!("f{i}"),
            size_bytes: 3 * bs,
        })
        .collect();
    let jobs: Vec<JobSpec> = (0..60u32)
        .map(|id| JobSpec {
            id,
            arrival: SimTime::from_secs(id as u64),
            file: if id % 4 == 0 {
                (id as usize / 4) % 8
            } else {
                0
            },
            map_compute: SimDuration::from_secs(20),
            reduces: 1,
            output_bytes: 10 * MB,
        })
        .collect();
    let wl = Workload {
        name: "rot-contention".into(),
        files,
        jobs,
    };
    let base = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 93);
    let rot = corrupt_primaries(&base, &wl, None, 1, 40);
    let run_with = |streams: usize| {
        let mut cfg = base.clone().with_scanner(crate::ScannerConfig {
            period: SimDuration::from_secs(20),
            bytes_per_sec: 64 * MB,
        });
        cfg.faults.events = rot.clone();
        cfg.faults.max_recovery_streams = streams;
        cfg.record_trace = true;
        crate::run(cfg, &wl)
    };
    let quiet = run_with(0);
    let noisy = run_with(6);
    assert_eq!(quiet.faults.blocks_re_replicated, 0);
    assert!(noisy.faults.replicas_quarantined > 0);
    assert!(
        noisy.faults.blocks_re_replicated > 0,
        "quarantined primaries must be repaired"
    );
    assert!(noisy.faults.recovery_bytes > 0);

    let quiet_trace = quiet.trace.expect("tracing was on");
    let noisy_trace = noisy.trace.expect("tracing was on");
    let fetches = |spans: &[dare_trace::FlowSpan]| -> Vec<dare_trace::FlowSpan> {
        spans
            .iter()
            .filter(|s| s.kind == dare_trace::FlowKind::Fetch)
            .cloned()
            .collect()
    };
    let quiet_spans = dare_trace::flow_spans(&quiet_trace);
    let noisy_spans = dare_trace::flow_spans(&noisy_trace);
    let key = |s: &dare_trace::FlowSpan| (s.ctx, s.dst, s.bytes, s.start);
    let quiet_ends: HashMap<_, _> = fetches(&quiet_spans)
        .iter()
        .map(|s| (key(s), s.end))
        .collect();
    let mut delayed = 0u32;
    for s in fetches(&noisy_spans) {
        if let (Some(Some(q)), Some(n)) = (quiet_ends.get(&key(&s)), s.end) {
            if n > *q {
                delayed += 1;
            }
        }
    }
    assert!(
        delayed > 0,
        "corruption repair must measurably delay at least one map fetch"
    );
    let overlapping = noisy_spans
        .iter()
        .filter(|r| r.kind == dare_trace::FlowKind::Recovery)
        .any(|r| fetches(&noisy_spans).iter().any(|f| r.overlaps(f)));
    assert!(
        overlapping,
        "a repair flow must overlap a map fetch in the noisy run"
    );
}

#[test]
fn scrubber_detects_corruption_between_reads() {
    use dare_trace::TraceEvent;
    // Jobs only ever touch file 0; file 1's blocks are never read, so
    // only the background scanner can notice their rot.
    let bs = 128 * MB;
    let files: Vec<FileSpec> = (0..2)
        .map(|i| FileSpec {
            name: format!("f{i}"),
            size_bytes: 3 * bs,
        })
        .collect();
    let jobs: Vec<JobSpec> = (0..20u32)
        .map(|id| JobSpec {
            id,
            arrival: SimTime::from_secs(id as u64 * 10),
            file: 0,
            map_compute: SimDuration::from_secs(20),
            reduces: 1,
            output_bytes: 10 * MB,
        })
        .collect();
    let wl = Workload {
        name: "cold-rot".into(),
        files,
        jobs,
    };
    let base = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 23);
    let rot = corrupt_primaries(&base, &wl, Some(dare_dfs::FileId(1)), 1, 5);
    assert!(!rot.is_empty());
    let mut cfg = base.with_scanner(crate::ScannerConfig {
        period: SimDuration::from_secs(30),
        bytes_per_sec: 32 * MB,
    });
    cfg.faults.events = rot;
    cfg.record_trace = true;
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs, 20);
    assert_eq!(
        r.faults.checksum_failures, 0,
        "the cold file is never read, so no read-path detection"
    );
    assert!(
        r.faults.scrub_detections > 0,
        "the scanner must find rot reads can't"
    );
    assert!(r.faults.scrub_bytes > 0);
    assert!(r.faults.replicas_quarantined > 0);
    assert!(
        r.faults.blocks_re_replicated > 0,
        "scrub-detected primaries go through the repair queue"
    );
    assert_eq!(r.faults.blocks_lost_corruption, 0, "rf=3 rides out one rot");
    let trace = r.trace.expect("tracing was on");
    assert!(trace.records().iter().any(|rec| matches!(
        rec.event,
        TraceEvent::ScrubComplete { found, .. } if found > 0
    )));
    assert!(trace
        .records()
        .iter()
        .any(|rec| matches!(rec.event, TraceEvent::RepairCommit { .. })));
}

#[test]
fn corrupt_dynamic_replica_is_evicted_not_repaired() {
    use dare_trace::TraceEvent;
    let wl = tiny_workload(8, 3, 40);
    let mk = || {
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 29).with_scanner(
            crate::ScannerConfig {
                period: SimDuration::from_secs(20),
                bytes_per_sec: 64 * MB,
            },
        );
        cfg.budget_frac = 1.0;
        cfg.record_trace = true;
        cfg
    };
    // Probe run: find the first dynamic replica DARE materialises. The
    // real run below differs only by one silent rot event, so the same
    // replica commits at the same instant there.
    let probe = crate::run(mk(), &wl);
    let probe_trace = probe.trace.expect("tracing was on");
    let committed = probe_trace
        .records()
        .iter()
        .find(|rec| matches!(rec.event, TraceEvent::ReplicaCommitted { .. }))
        .expect("greedy LRU replicates");
    let TraceEvent::ReplicaCommitted { node, block } = committed.event else {
        unreachable!()
    };

    let mut cfg = mk();
    cfg.faults.events.push(crate::FaultEvent::CorruptReplica {
        at_secs: committed.time.as_secs_f64() as u64 + 1,
        node,
        block,
    });
    let r = crate::run(cfg, &wl);
    assert_eq!(r.run.jobs, 40);
    let trace = r.trace.expect("tracing was on");
    assert!(
        trace.records().iter().any(|rec| matches!(
            rec.event,
            TraceEvent::ReplicaQuarantined { node: n, block: b, dynamic: true }
                if n == node && b == block
        )),
        "the rotted dynamic replica must be quarantined as dynamic"
    );
    // Eviction, never repair: the primaries are intact, so the block
    // never enters the recovery queue and no repair traffic flows.
    assert!(!trace.records().iter().any(|rec| matches!(
        rec.event,
        TraceEvent::RecoveryQueued { block: b, .. } if b == block
    )));
    assert!(!trace
        .records()
        .iter()
        .any(|rec| matches!(rec.event, TraceEvent::RepairCommit { .. })));
    assert_eq!(r.faults.blocks_re_replicated, 0);
    assert_eq!(r.faults.blocks_lost, 0);
    assert_eq!(r.faults.blocks_lost_corruption, 0);
    assert!(r.faults.replicas_quarantined > 0);
}

#[test]
fn rf1_corruption_is_accounted_as_corruption_loss() {
    let wl = tiny_workload(8, 3, 40);
    let mut base = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 37);
    base.dfs.replication_factor = 1;
    // Rot the single copy of every file-0 block: detection (read or
    // scrub) leaves zero replicas, so the blocks are gone — charged to
    // the corruption ledger, not the crash one.
    let rot = corrupt_primaries(&base, &wl, Some(dare_dfs::FileId(0)), 1, 25);
    let mut cfg = base
        .with_scanner(crate::ScannerConfig {
            period: SimDuration::from_secs(30),
            bytes_per_sec: 32 * MB,
        })
        .with_invariant_checks();
    cfg.faults.events = rot;
    let r = crate::run(cfg, &wl);
    assert!(
        r.faults.blocks_lost_corruption > 0,
        "rf=1 rot must lose blocks"
    );
    assert_eq!(
        r.faults.blocks_lost, 0,
        "no crash happened, so the crash ledger stays empty"
    );
    assert!(r.faults.jobs_failed > 0, "jobs on rotted blocks must fail");
    assert_eq!(r.run.failed_jobs as u64, r.faults.jobs_failed);
    assert_eq!(r.run.jobs + r.run.failed_jobs, 40);
}

#[test]
fn corruption_and_scrubbing_are_deterministic() {
    let wl = tiny_workload(8, 3, 30);
    let run = || {
        let spec = crate::FaultSpec {
            horizon_secs: 300,
            kills: 0,
            crashes: 1,
            mean_down_secs: 60,
            rack_outages: 0,
            stragglers: 1,
            straggler_factor: 3.0,
            corruption_rate_per_node_hour: 40.0,
        };
        let cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 41);
        let plan = crate::FaultPlan::generate_valid(&spec, &cfg.topology(), 24, 0xB17F117);
        let cfg = cfg
            .with_scanner(crate::ScannerConfig {
                period: SimDuration::from_secs(45),
                bytes_per_sec: 16 * MB,
            })
            .with_faults(plan)
            .with_invariant_checks();
        crate::run(cfg, &wl)
    };
    let a = run();
    let b = run();
    assert!(
        a.faults.replicas_corrupted > 0,
        "the sweep actually rotted bytes"
    );
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.run.gmtt_secs, b.run.gmtt_secs);
    assert_eq!(a.dfs_fingerprint, b.dfs_fingerprint);
}

#[test]
fn telemetry_is_observation_only() {
    let wl = tiny_workload(8, 3, 40);
    let base = crate::run(
        {
            let mut c = SimConfig::cct(
                PolicyKind::elephant_default(),
                SchedulerKind::fair_default(),
                5,
            );
            c.budget_frac = 1.0;
            c
        },
        &wl,
    );
    let sampled = crate::run(telemetry_cfg(5), &wl);
    assert_eq!(base.run, sampled.run);
    assert_eq!(base.outcomes, sampled.outcomes);
    assert_eq!(base.dfs_fingerprint, sampled.dfs_fingerprint);
    assert!(base.telemetry.is_none() && base.profile.is_none());
}

/// Batched heartbeats change event timing (documented), but the run
/// must still complete every job, respect the structural invariants,
/// and stay deterministic — including across a crash and rejoin,
/// where no per-node chain exists to restart.
#[test]
fn batched_heartbeats_complete_all_jobs_with_faults() {
    let wl = tiny_workload(8, 3, 40);
    let run = || {
        let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::Fifo, 23)
            .with_batched_heartbeats()
            .with_failures(vec![(40, 2), (90, 7), (150, 11)])
            .with_invariant_checks();
        cfg.budget_frac = 1.0;
        crate::run(cfg, &wl)
    };
    let a = run();
    assert_eq!(
        a.run.jobs, 40,
        "every job completes under batched heartbeats"
    );
    for o in &a.outcomes {
        assert_eq!(o.node_local + o.rack_local + o.remote, o.maps);
    }
    let b = run();
    assert_eq!(a.run, b.run);
    assert_eq!(a.dfs_fingerprint, b.dfs_fingerprint);
}

/// Model-cluster engine for the step-control fault tests: a few
/// nodes, RF 2, one serialized recovery stream, per-event invariant
/// checks on — the same shape the bounded model checker drives.
fn stepped_engine(nodes: u32, blocks: u64, seed: u64) -> Engine {
    let mut cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, seed);
    cfg.profile = dare_net::ClusterProfile::scale(nodes);
    cfg.dfs.replication_factor = 2;
    cfg.faults.max_recovery_streams = 1;
    cfg.check_invariants = true;
    cfg.budget_frac = 1.0;
    Engine::new(cfg, &tiny_workload(1, blocks, 1))
}

fn step_to_quiescence(eng: &mut Engine) {
    for _ in 0..200_000 {
        match eng.step().expect("invariants hold at every event") {
            StepOutcome::Progressed => {}
            StepOutcome::Quiescent => return,
        }
    }
    panic!("engine did not quiesce");
}

/// Repair targets are the live nodes without a copy on disk. Neither
/// a crashed holder's intact disk nor an unreported dynamic replica
/// on a live node is a visible location; each must still be handled
/// exactly, as a scan of every node's disk would.
#[test]
fn repair_targets_skip_every_live_node_with_a_copy_on_disk() {
    let mut eng = stepped_engine(6, 2, 0x7A26);
    let b = BlockId(0);
    let scan = |eng: &Engine| -> Vec<NodeId> {
        (0..6)
            .map(NodeId)
            .filter(|&n| eng.node_up(n.idx()) && !eng.dfs.is_physically_present(n, b))
            .collect()
    };
    assert_eq!(eng.repair_targets(b, &[]), scan(&eng));
    let holder = eng.dfs.visible_locations(b)[0];
    eng.nodes.set_crashed(holder.idx(), true);
    assert_eq!(eng.repair_targets(b, &[]), scan(&eng));
    let outsider = scan(&eng)[0];
    assert!(eng.dfs.insert_dynamic(eng.now, outsider, b));
    let targets = eng.repair_targets(b, &[]);
    assert!(!targets.contains(&outsider), "unreported dynamic replica");
    assert_eq!(targets, scan(&eng));
    // A repair already copying to a node rules it out too.
    assert_eq!(eng.repair_targets(b, &[targets[0].0]), scan(&eng)[1..]);
}

/// The rejoin-during-re-replication race: a node crashes long enough
/// to be declared dead, repairs for its blocks queue up behind one
/// recovery stream, and the node rejoins while the first transfer is
/// still in flight. The healed queue entries must be re-checked and
/// skipped (need-driven repair), the rejoined node's replicas must
/// re-register exactly once, and nothing may be counted lost.
#[test]
fn rejoin_during_rereplication_cancels_stale_repairs() {
    let mut eng = stepped_engine(3, 4, 0xACE5);
    // Crash the heaviest holder so several blocks go under-RF at
    // declare-dead (t=30 s) and the queue backs up; rejoin at 31 s
    // lands between the first pop and the first completion (~32.4 s).
    let heavy = (0..3u32)
        .max_by_key(|&n| (0..4).filter(|&b| eng.block_present(n, b)).count())
        .unwrap();
    let held: Vec<u64> = (0..4).filter(|&b| eng.block_present(heavy, b)).collect();
    assert!(held.len() >= 2, "need a backed-up repair queue");
    eng.inject_crash(heavy, 31);
    step_to_quiescence(&mut eng);

    let s = eng.fault_stats();
    assert_eq!(s.blocks_lost, 0, "every block had a surviving replica");
    assert_eq!(s.blocks_lost_corruption, 0);
    assert_eq!(s.nodes_rejoined, 1);
    assert_eq!(eng.recovery_backlog(), 0, "repair queue fully drained");
    // Only the transfer already in flight at rejoin may commit; the
    // queued blocks healed when the node came back and must be
    // skipped by the pop-time re-check, not blindly copied.
    assert!(
        s.blocks_re_replicated < held.len() as u64,
        "{} of {} under-replicated blocks re-replicated — healed \
         queue entries were not re-checked",
        s.blocks_re_replicated,
        held.len()
    );
    // No duplicate registrations: the rejoined node's replicas came
    // back exactly once, so every block is at or above RF with each
    // location holding exactly one physical copy (the per-event
    // invariant checks verified master/disk coherence throughout).
    for b in 0..4u64 {
        assert!(eng.visible_replicas(b) >= 2, "block {b} below RF");
    }
}

/// A replica feeding an in-flight repair turns out corrupt: the
/// transfer must be cancelled with the quarantine, not committed —
/// the bounded model checker found the original bug as a
/// lost-blocks-unrecoverable violation (the tainted arrival
/// resurrected a block already declared lost with bytes read from
/// the corrupt copy).
#[test]
fn corrupt_recovery_source_taints_inflight_repair() {
    let mut eng = stepped_engine(4, 4, 0xACE5);
    // Pick a block and its two holders: corrupt one copy silently,
    // permanently kill the other. Recovery then starts from the
    // corrupt source; when a read detects the corruption, the block
    // has no clean copy left and must be declared lost — and stay
    // lost, with the in-flight tainted transfer discarded.
    let holders: Vec<u32> = (0..4u32).filter(|&n| eng.block_present(n, 0)).collect();
    assert_eq!(holders.len(), 2, "block 0 starts at RF 2");
    eng.inject_corrupt(holders[0], 0);
    eng.inject_kill(holders[1]);
    step_to_quiescence(&mut eng);

    // With its only surviving copy corrupt, block 0 is lost; the
    // invariant checks (run after every event) verified that no
    // recovery transfer ever re-materialized it.
    assert_eq!(eng.lost_block_count(), 1, "block 0 is unrecoverable");
    assert_eq!(eng.fault_stats().blocks_lost_corruption, 1);
    assert!(
        (0..4u32).all(|n| !eng.block_present(n, 0)),
        "a lost block holds no physical copy anywhere"
    );
    assert_eq!(eng.recovery_backlog(), 0);
}

/// The queue arm and peak gauges show up in a profiled run, and the
/// profiler remains observation-only with them.
#[test]
fn profile_reports_queue_arm_and_peaks() {
    let wl = tiny_workload(8, 3, 40);
    let mut cfg = SimConfig::cct(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 11);
    cfg.budget_frac = 1.0;
    cfg.self_profile = true;
    let r = crate::run(cfg, &wl);
    let p = r.profile.expect("profiled run returns a report");
    let (queue_events, _) = p.of(Subsystem::Queue);
    assert!(queue_events > 0, "every dispatched event was popped");
    assert_eq!(
        queue_events,
        p.total_events(),
        "one pop per dispatched event"
    );
    assert!(p.peak_queue_len > 0, "the queue held events");
    assert!(p.peak_slab_occupancy > 0, "fetch flows occupied the slab");
}

/// A straggler plan for the speculation due-time test: two nodes limp at
/// ×3 (one recovers) and one crashes and rejoins, so attempts are
/// launched, killed, requeued and backed up.
fn straggler_plan_cfg() -> SimConfig {
    use crate::FaultEvent::{Crash, Slowdown};
    let plan = crate::FaultPlan {
        events: vec![
            Slowdown {
                at_secs: 20,
                node: 3,
                factor: 3.0,
                duration_secs: None,
            },
            Slowdown {
                at_secs: 40,
                node: 7,
                factor: 3.0,
                duration_secs: Some(120),
            },
            Crash {
                at_secs: 60,
                node: 11,
                down_secs: 30,
            },
        ],
        ..crate::FaultPlan::default()
    };
    SimConfig::ec2(PolicyKind::GreedyLru, SchedulerKind::fair_default(), 71)
        .with_faults(plan)
        .with_speculation(crate::config::SpeculationConfig {
            slowdown_factor: 1.2,
            min_elapsed_secs: 2.0,
        })
        .with_invariant_checks()
}

#[test]
fn speculation_due_time_keeps_a_straggler_run_bit_identical() {
    // Idle offers skip the speculation scan while its due time lies
    // ahead; in test builds each skip re-checks every job. The figures
    // are those of the engine that scanned on every idle offer.
    let wl = tiny_workload(8, 4, 40);
    let mut engine = Engine::new(straggler_plan_cfg(), &wl);
    let mut due_ahead = 0u64;
    while engine.finished < engine.jobs.len() {
        engine.dispatch_next().expect("run stays valid");
        due_ahead += engine.spec_due.is_some_and(|d| d > engine.now) as u64;
    }
    engine
        .check_terminal_invariants()
        .expect("terminal invariants");
    assert!(due_ahead > 0, "the due time never lay ahead");
    let r = engine.finish();
    assert_eq!(
        (
            r.speculative_launches,
            r.speculative_wins,
            r.logical_events,
            r.run.gmtt_secs.to_bits(),
        ),
        (7, 7, 14_600, 0x4042_397b_6362_4227),
        "gmtt {}",
        r.run.gmtt_secs
    );
}
