//! Trace smoke test: run the golden scenarios with tracing on, validate
//! the JSONL export against the event schema, diff it against the
//! checked-in golden files under `tests/golden/`, and drop a
//! Perfetto-openable Chrome trace under `results/` for inspection (CI
//! uploads it as an artifact).
//!
//! This is the out-of-`cargo-test` twin of `tests/golden_trace.rs`: the
//! same scenarios and the same differ, runnable as
//! `experiments -- trace-smoke` so a pipeline can gate on it and keep the
//! rendered trace even when the gate fails.

use dare_mapred::golden::{golden_scenarios, run_golden};
use dare_trace::{diff_golden, from_jsonl, to_chrome, to_jsonl};
use std::path::PathBuf;

/// Where the checked-in golden JSONL files live (workspace-root
/// `tests/golden/`, or the same path relative to the bench crate when run
/// from elsewhere).
fn golden_dir() -> PathBuf {
    let local = PathBuf::from("tests/golden");
    if local.is_dir() {
        return local;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Run the smoke test. Returns the number of failing scenarios (0 = the
/// traces are schema-valid and byte-identical to the golden files).
pub fn run(_seed: u64) -> usize {
    // The golden scenarios are seed-pinned by design: a drifting seed
    // would diff against the wrong baseline, so `--seed` is ignored here.
    let dir = golden_dir();
    let mut failed = 0usize;
    for (name, _) in golden_scenarios() {
        let r = run_golden(name);
        let trace = r.trace.expect("golden scenarios record traces");
        print!("[trace-smoke] {name}: {} ... ", trace.summary());
        let jsonl = to_jsonl(&trace);
        if let Err(e) = from_jsonl(&jsonl) {
            println!("SCHEMA FAIL");
            eprintln!("[trace-smoke] {name}: invalid JSONL: {e}");
            failed += 1;
            continue;
        }
        let path = dir.join(format!("{name}.jsonl"));
        match std::fs::read_to_string(&path) {
            Ok(golden) => {
                if let Some(d) = diff_golden(&golden, &jsonl) {
                    println!("GOLDEN DRIFT");
                    eprintln!(
                        "[trace-smoke] {name}: trace drifted from {}:\n{d}",
                        path.display()
                    );
                    failed += 1;
                } else {
                    println!("ok");
                }
            }
            Err(e) => {
                println!("NO GOLDEN");
                eprintln!("[trace-smoke] {name}: cannot read {}: {e}", path.display());
                failed += 1;
            }
        }
    }

    // One rendered Chrome trace for eyeballs / the CI artifact: the
    // scenario with the most moving parts (fair scheduler + DARE-LRU).
    let show = "fair-dare-lru";
    let trace = run_golden(show).trace.expect("traced");
    let out = crate::harness::csv_path("x");
    let out = out
        .parent()
        .expect("csv dir")
        .join(format!("trace_smoke_{show}.json"));
    match std::fs::write(&out, to_chrome(&trace)) {
        Ok(()) => println!(
            "[trace-smoke] wrote {} ({} events; open at ui.perfetto.dev)",
            out.display(),
            trace.records().len()
        ),
        Err(e) => eprintln!("[trace-smoke] could not write {}: {e}", out.display()),
    }
    if failed > 0 {
        eprintln!(
            "[trace-smoke] {failed} scenario(s) failed; refresh on purpose with \
             `UPDATE_GOLDEN=1 cargo test --test golden_trace`"
        );
    }
    failed
}
