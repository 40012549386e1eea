//! Golden-trace regression harness.
//!
//! Every scenario in `dare_mapred::golden` is run with tracing on and its
//! byte-stable JSONL export is compared against the checked-in file under
//! `tests/golden/`. Any behavioral drift in the engine — a changed
//! scheduling decision, a shifted flow completion, a different eviction —
//! shows up as a line-level diff against the golden file, with the event
//! vocabulary making the drift readable.
//!
//! After an *intentional* behavior change, refresh the files with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and review the golden diff like any other code change.

use dare_core::PolicyKind;
use dare_mapred::golden::{golden_scenarios, golden_workload, run_golden, GOLDEN_SEED};
use dare_mapred::{SchedulerKind, SimConfig};
use dare_trace::{diff_golden, from_jsonl, to_chrome, to_jsonl};
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The core regression gate: each scenario's JSONL must match its golden
/// file byte for byte (after the differ's normalization, which is the
/// identity for well-formed files), and the golden file must read back
/// into a trace that re-serializes to the same bytes and reports the live
/// run's counters and summary. With `UPDATE_GOLDEN=1` the files are
/// rewritten instead of compared.
#[test]
fn golden_traces_match_checked_in_files() {
    let dir = golden_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        fs::create_dir_all(&dir).expect("create tests/golden");
    }
    for (name, _) in golden_scenarios() {
        let r = run_golden(name);
        let trace = r.trace.expect("golden scenarios record traces");
        let jsonl = to_jsonl(&trace);
        from_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("{name}: exporter emitted invalid JSONL: {e}"));
        let path = dir.join(format!("{name}.jsonl"));
        if update {
            fs::write(&path, &jsonl).unwrap_or_else(|e| panic!("{name}: write {path:?}: {e}"));
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: cannot read golden file {path:?}: {e}\n\
                 (first run? refresh with `UPDATE_GOLDEN=1 cargo test --test golden_trace`)"
            )
        });
        if let Some(d) = diff_golden(&golden, &jsonl) {
            panic!("{name}: trace drifted from golden:\n{d}");
        }
        let reread = from_jsonl(&golden).unwrap_or_else(|e| panic!("{name}: golden file: {e}"));
        assert_eq!(to_jsonl(&reread), golden, "{name}: golden re-serializes");
        assert_eq!(reread.counters(), trace.counters(), "{name}: counters");
        assert_eq!(reread.summary(), trace.summary(), "{name}: summary");
    }
}

/// Same scenario, two fresh engine instances: the exported traces must be
/// byte-identical. This is the replay-determinism contract the golden
/// files rest on — without it the harness would flake.
#[test]
fn replay_is_byte_identical_across_runs() {
    for (name, _) in golden_scenarios() {
        let a = to_jsonl(&run_golden(name).trace.unwrap());
        let b = to_jsonl(&run_golden(name).trace.unwrap());
        assert_eq!(a, b, "{name}: same seed must replay to the same bytes");
    }
}

/// The Chrome Trace Event export of a golden scenario is well-formed
/// enough for Perfetto: one JSON object with a `traceEvents` array of
/// complete (`X`) spans, instants, and the four process-name metadata
/// records naming the job/task/flow/cluster tracks.
#[test]
fn chrome_export_is_wellformed() {
    let trace = run_golden("fifo-dare-lru").trace.unwrap();
    let chrome = to_chrome(&trace);
    assert!(chrome.starts_with('{') && chrome.trim_end().ends_with('}'));
    assert!(chrome.contains("\"traceEvents\""));
    let count = |ph: &str| chrome.matches(ph).count();
    assert!(count("\"ph\":\"X\"") > 0, "has complete spans");
    assert_eq!(count("\"ph\":\"M\""), 4, "names the four tracks");
    assert!(
        !chrome.contains("(unfinished)"),
        "a golden run drains every span before the trace ends"
    );
}

/// Tracing is observation-only: the same configuration run with the
/// recorder on and off must produce identical simulation results — the
/// aggregate metrics, every per-job outcome, the fault counters, and the
/// DFS's final physical replica map (via its fingerprint). Only the
/// `trace` field may differ.
#[test]
fn tracing_is_observation_only() {
    // The golden matrix, plus a fault-heavy fair-scheduler run so the
    // crash / declare-dead / re-replication emission paths are covered.
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
    faulted.record_trace = true;
    cases.push(("faulted-fair-dare-lru".to_string(), faulted));
    // Scanner + silent corruption of every replica of block 0: covers the
    // checksum-failure, quarantine, scrub, and corruption-loss emission
    // paths (the scrub's disk-budget contention is simulation state, so it
    // must be identical with the recorder on or off).
    let mut scrubbed = SimConfig::cct(
        PolicyKind::GreedyLru,
        SchedulerKind::fair_default(),
        GOLDEN_SEED,
    )
    .with_scanner(dare_mapred::ScannerConfig {
        period: dare_simcore::SimDuration::from_secs(10),
        bytes_per_sec: 32 << 20,
    });
    scrubbed.budget_frac = 1.0;
    scrubbed.record_trace = true;
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
    cases.push(("scrubbed-corrupt-dare-lru".to_string(), scrubbed));

    let wl = golden_workload();
    for (name, cfg) in cases {
        let mut off_cfg = cfg.clone();
        off_cfg.record_trace = false;
        let on = dare_mapred::run(cfg, &wl);
        let off = dare_mapred::run(off_cfg, &wl);
        assert!(on.trace.is_some(), "{name}: traced run carries a trace");
        assert!(off.trace.is_none(), "{name}: untraced run carries none");
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
