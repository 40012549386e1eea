//! Telemetry integration tests.
//!
//! Mirrors the golden-trace harness's guarantees for the sampler: the
//! time-series is observation-only (turning it on cannot change a single
//! simulation outcome), its exports are byte-deterministic across runs —
//! including under an active fault plan — and what it reports reflects
//! the *master-visible* cluster: a silently crashed node keeps
//! advertising its slots until the heartbeat timeout declares it dead,
//! so the capacity series steps down at the detection tick, not at the
//! crash tick.

use dare_core::PolicyKind;
use dare_mapred::golden::{golden_scenarios, golden_workload, GOLDEN_SEED};
use dare_mapred::{SchedulerKind, SimConfig, TelemetryConfig};
use dare_simcore::SimDuration;
use dare_telemetry::validate_jsonl;

/// The golden matrix plus a fault-heavy fair run (two silent node
/// crashes), every case with a 5s sampling interval.
fn cases() -> Vec<(String, SimConfig)> {
    let mut cases: Vec<(String, SimConfig)> = golden_scenarios()
        .into_iter()
        .map(|(n, cfg)| (n.to_string(), cfg))
        .collect();
    let mut faulted = SimConfig::cct(
        PolicyKind::GreedyLru,
        SchedulerKind::fair_default(),
        GOLDEN_SEED,
    )
    .with_failures(vec![(20, 3), (45, 7)]);
    faulted.budget_frac = 1.0;
    cases.push(("faulted-fair-dare-lru".to_string(), faulted));
    // Scanner + silent corruption: every replica of block 0 rots early, so
    // the run exercises read-path checksums, scrub passes, quarantine, and
    // a corruption-loss — and the corruption-gated telemetry columns.
    let mut scrubbed = SimConfig::cct(
        PolicyKind::GreedyLru,
        SchedulerKind::fair_default(),
        GOLDEN_SEED,
    )
    .with_scanner(dare_mapred::ScannerConfig {
        period: SimDuration::from_secs(10),
        bytes_per_sec: 32 << 20,
    });
    scrubbed.budget_frac = 1.0;
    for node in 0..19 {
        scrubbed
            .faults
            .events
            .push(dare_mapred::FaultEvent::CorruptReplica {
                at_secs: 2,
                node,
                block: 0,
            });
    }
    // A faster scanner + one rotten replica of an RF-3 block: a scrub pass
    // quarantines it within the run and the repair from a healthy copy
    // commits, so the run records a `repair_time_secs` value.
    let mut repaired = scrubbed.clone().with_scanner(dare_mapred::ScannerConfig {
        period: SimDuration::from_secs(5),
        bytes_per_sec: 256 << 20,
    });
    let probe = dare_mapred::Engine::new(repaired.clone(), &golden_workload());
    assert_eq!(probe.replication_factor(), 3);
    let node = (0..19)
        .find(|&n| probe.block_present(n, 0))
        .expect("block 0 is placed");
    repaired.faults.events = vec![dare_mapred::FaultEvent::CorruptReplica {
        at_secs: 2,
        node,
        block: 0,
    }];
    cases.push(("scrubbed-corrupt-dare-lru".to_string(), scrubbed));
    cases.push(("repaired-corrupt-dare-lru".to_string(), repaired));
    for (_, cfg) in &mut cases {
        *cfg = cfg.clone().with_telemetry(TelemetryConfig {
            interval: SimDuration::from_secs(5),
        });
    }
    cases
}

/// Sampling is observation-only: the same configuration run with and
/// without telemetry (and the self-profiler) must produce identical
/// simulation results — aggregate metrics, per-job outcomes, fault
/// counters, and the DFS's final replica map. Only the `telemetry` and
/// `profile` fields may differ.
#[test]
fn telemetry_is_observation_only() {
    let wl = golden_workload();
    for (name, cfg) in cases() {
        let mut off_cfg = cfg.clone();
        off_cfg.telemetry = None;
        let on = dare_mapred::run(cfg.with_self_profile(), &wl);
        let off = dare_mapred::run(off_cfg, &wl);
        assert!(on.telemetry.is_some(), "{name}: sampled run carries series");
        assert!(
            off.telemetry.is_none(),
            "{name}: unsampled run carries none"
        );
        assert_eq!(on.run, off.run, "{name}: aggregate metrics must match");
        assert_eq!(on.outcomes, off.outcomes, "{name}: job outcomes must match");
        assert_eq!(on.faults, off.faults, "{name}: fault counters must match");
        assert_eq!(
            on.dfs_fingerprint, off.dfs_fingerprint,
            "{name}: final replica maps must match"
        );
        assert_eq!(on.replicas_created, off.replicas_created, "{name}");
        assert_eq!(on.evictions, off.evictions, "{name}");
        assert_eq!(on.remote_bytes_fetched, off.remote_bytes_fetched, "{name}");
    }
}

/// Two fresh engines on the same seed must serialize the same telemetry
/// bytes — CSVs and JSONL — including across a fault-plan run, where the
/// sampler additionally covers detection, retry, and recovery activity.
#[test]
fn telemetry_exports_are_byte_identical_across_runs() {
    let wl = golden_workload();
    for (name, cfg) in cases() {
        let a = dare_mapred::run(cfg.clone(), &wl).telemetry.unwrap();
        let b = dare_mapred::run(cfg, &wl).telemetry.unwrap();
        assert_eq!(a.cluster_csv(), b.cluster_csv(), "{name}: cluster CSV");
        assert_eq!(a.nodes_csv(), b.nodes_csv(), "{name}: node CSV");
        assert_eq!(a.jobs_csv(), b.jobs_csv(), "{name}: job CSV");
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "{name}: JSONL");
    }
}

/// Every case's JSONL export passes the schema validator, its
/// `locality_rate` is a rate at every tick and ends at the run's locality
/// when no job failed, and on the fault-free golden matrix the
/// telemetry-derived locality metrics agree bitwise with the summarizer's.
#[test]
fn telemetry_jsonl_is_schema_valid_and_rederives_locality() {
    let wl = golden_workload();
    for (name, cfg) in cases() {
        let faulted = !cfg.faults.events.is_empty();
        let r = dare_mapred::run(cfg, &wl);
        let t = r.telemetry.as_ref().unwrap();
        validate_jsonl(&t.to_jsonl()).unwrap_or_else(|e| panic!("{name}: invalid JSONL: {e}"));
        let rate = |i: usize| match t.value(i, "locality_rate").unwrap() {
            dare_telemetry::Value::F64(v) => v,
            other => panic!("{name}: locality_rate is a float, got {other:?}"),
        };
        for i in 0..t.ticks() {
            assert!(
                (0.0..=1.0).contains(&rate(i)),
                "{name}: tick {i} rate {}",
                rate(i)
            );
        }
        if r.run.failed_jobs == 0 {
            assert_eq!(
                rate(t.ticks() - 1).to_bits(),
                r.run.locality.to_bits(),
                "{name}: terminal locality_rate is the run's locality"
            );
        }
        if faulted {
            continue; // locality cross-check is exercised on clean runs
        }
        let jl = r.telemetry_job_locality().expect("completed jobs");
        assert_eq!(
            jl.to_bits(),
            r.run.job_locality.to_bits(),
            "{name}: job locality drifted between the two derivations"
        );
        let l = r.telemetry_locality().expect("completed jobs");
        assert_eq!(
            l.to_bits(),
            r.run.locality.to_bits(),
            "{name}: task locality drifted between the two derivations"
        );
    }
}

/// The JSONL export of the scanner + corruption case, byte for byte
/// against `tests/golden/telemetry-scrubbed-corrupt-dare-lru.jsonl`: cluster
/// rows with the gated corruption and `repair_time_secs` columns, node
/// rows and job rows. After an intentional change to the telemetry schema
/// or to simulated outcomes, refresh it with
/// `UPDATE_GOLDEN=1 cargo test --test telemetry`.
#[test]
fn telemetry_jsonl_matches_golden() {
    const NAME: &str = "scrubbed-corrupt-dare-lru";
    let cfg = cases()
        .into_iter()
        .find(|(n, _)| n == NAME)
        .expect("known case")
        .1;
    let jsonl = dare_mapred::run(cfg, &golden_workload())
        .telemetry
        .unwrap()
        .to_jsonl();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/telemetry-{NAME}.jsonl"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return std::fs::write(&path, &jsonl).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let diff = dare_trace::diff_golden(&golden, &jsonl).unwrap_or_default();
    assert!(jsonl == golden, "telemetry drifted from golden:\n{diff}");
}

/// A committed repair of a quarantined replica shows up in the windowed
/// `repair_time_secs` columns: some tick counts it and its time is positive.
#[test]
fn committed_repair_records_repair_time() {
    const NAME: &str = "repaired-corrupt-dare-lru";
    let cfg = cases()
        .into_iter()
        .find(|(n, _)| n == NAME)
        .expect("known case")
        .1;
    let r = dare_mapred::run(cfg, &golden_workload());
    assert_eq!(r.faults.replicas_corrupted, 1, "one replica rots");
    assert_eq!(r.faults.blocks_lost, 0, "two healthy copies remain");
    let t = r.telemetry.unwrap();
    let repaired = (0..t.ticks()).any(|i| {
        let n = t.value(i, "repair_time_secs_n");
        let max = t.value(i, "repair_time_secs_max");
        matches!(n, Some(dare_telemetry::Value::U64(n)) if n >= 1)
            && matches!(max, Some(dare_telemetry::Value::F64(m)) if m > 0.0)
    });
    assert!(repaired, "no tick recorded the committed repair");
    // The scrubber finds the rotten replica: some tick counts the
    // detection and the quarantine it triggers.
    for col in ["d_scrub_detections", "d_replicas_quarantined"] {
        let seen = (0..t.ticks()).any(|i| t.value(i, col).is_some_and(|v| v.as_f64() > 0.0));
        assert!(seen, "no tick recorded {col}");
    }
}

/// The data-integrity columns are strictly gated: they appear exactly
/// when the scanner or a corruption fault is configured, so a
/// corruption-free export carries the pre-scanner schema byte for byte.
#[test]
fn corruption_columns_are_gated() {
    let wl = golden_workload();
    for (name, cfg) in cases() {
        let gated = cfg.scanner.is_some()
            || cfg
                .faults
                .events
                .iter()
                .any(|e| matches!(e, dare_mapred::FaultEvent::CorruptReplica { .. }));
        let t = dare_mapred::run(cfg, &wl).telemetry.unwrap();
        let jsonl = t.to_jsonl();
        for col in [
            "corrupt_replicas",
            "quarantine_depth",
            "d_scrub_bytes",
            "d_checksum_failures",
            "d_scrub_detections",
            "d_replicas_quarantined",
            "repair_time_secs",
        ] {
            assert_eq!(jsonl.contains(col), gated, "{name}: column {col} gating");
        }
    }
}

/// A long workload (steady arrivals, 20s maps) so the run comfortably
/// outlives the heartbeat timeout — the golden workload drains in ~24s,
/// before a mid-run crash could ever be declared.
fn long_workload() -> dare_workload::Workload {
    const MB: u64 = 1 << 20;
    let bs = 128 * MB;
    let files: Vec<dare_workload::FileSpec> = (0..6)
        .map(|i| dare_workload::FileSpec {
            name: format!("f{i}"),
            size_bytes: 2 * bs,
        })
        .collect();
    let jobs: Vec<dare_workload::JobSpec> = (0..30)
        .map(|id| dare_workload::JobSpec {
            id,
            arrival: dare_simcore::SimTime::from_secs(id as u64 * 10),
            file: if id % 4 == 0 {
                (id as usize / 4) % 6
            } else {
                0
            },
            map_compute: SimDuration::from_secs(20),
            reduces: 1,
            output_bytes: 10 * MB,
        })
        .collect();
    dare_workload::Workload {
        name: "long".into(),
        files,
        jobs,
    }
}

/// A silently crashed node keeps advertising its slots to the master
/// until the heartbeat timeout expires, so the advertised map-slot
/// capacity must hold steady across the crash tick and step down only at
/// the detection tick (crash + detect_heartbeats × heartbeat = +30s).
#[test]
fn capacity_steps_at_detection_not_at_crash() {
    let crash_s: u64 = 5;
    let detect_s = crash_s + 10 * 3; // detect_heartbeats=10 × heartbeat=3s
    let cfg = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 19)
        .with_failures(vec![(crash_s, 2)])
        .with_telemetry(TelemetryConfig {
            interval: SimDuration::from_secs(5),
        });
    let r = dare_mapred::run(cfg, &long_workload());
    assert_eq!(r.faults.nodes_declared_dead, 1, "the death is detected");
    let t = r.telemetry.unwrap();

    let total_at = |i: usize| match t.value(i, "map_slots_total").unwrap() {
        dare_telemetry::Value::U64(v) => v,
        other => panic!("map_slots_total is integral, got {other:?}"),
    };
    let full = total_at(0);
    assert!(full > 0, "cluster advertises map slots");

    let mut first_drop = None;
    for i in 0..t.ticks() {
        let v = total_at(i);
        if v < full {
            first_drop = Some((t.cluster[i].t_us, v));
            break;
        }
        assert_eq!(v, full, "capacity must not change before a drop");
    }
    let (drop_us, dropped) =
        first_drop.expect("the run outlives the heartbeat timeout, so the death is observed");
    assert!(
        drop_us >= detect_s * 1_000_000,
        "capacity stepped at t={drop_us}us, before the {detect_s}s detection \
         deadline — the sampler leaked a not-yet-detected crash"
    );
    assert!(
        drop_us > crash_s * 1_000_000,
        "capacity stepped at or before the crash itself"
    );
    assert_eq!(
        dropped,
        full - full / 19,
        "exactly one node's worth of slots disappears at detection"
    );
}
