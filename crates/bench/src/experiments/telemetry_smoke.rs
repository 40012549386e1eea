//! Telemetry smoke test: run the Fair + DARE-LRU golden scenario with
//! sampling and self-profiling on, validate the JSONL export against the
//! telemetry schema, check the exports are deterministic (two identical
//! runs serialize byte-for-byte), and drop the cluster time-series CSV
//! plus the per-subsystem `BENCH_profile.json` under `results/` (CI
//! uploads the CSV as an artifact and gates on the profile report).
//!
//! Runnable as `experiments -- telemetry-smoke`; exits non-zero through
//! the dispatcher when any check fails.

use dare_mapred::golden::{golden_scenarios, golden_workload};
use dare_mapred::{SimResult, TelemetryConfig};
use dare_telemetry::{validate_jsonl, validate_profile_json};

/// The golden scenario the smoke test samples: the one with the most
/// moving parts (delay scheduling + dynamic replication).
const SCENARIO: &str = "fair-dare-lru";

fn run_sampled() -> SimResult {
    let cfg = golden_scenarios()
        .into_iter()
        .find(|(n, _)| *n == SCENARIO)
        .expect("known golden scenario")
        .1
        .with_telemetry(TelemetryConfig::default())
        .with_self_profile();
    dare_mapred::run(cfg, &golden_workload())
}

/// Run the smoke test. Returns the number of failed checks (0 = the
/// telemetry is schema-valid, deterministic, and both artifacts landed).
pub fn run(_seed: u64) -> usize {
    // Golden scenarios are seed-pinned by design; `--seed` is ignored.
    let mut failed = 0usize;
    let r = run_sampled();
    let t = r.telemetry.as_ref().expect("telemetry recorded");
    println!("[telemetry-smoke] {SCENARIO}: {}", t.summary());

    let jsonl = t.to_jsonl();
    match validate_jsonl(&jsonl) {
        Ok(()) => println!("[telemetry-smoke] JSONL schema ... ok"),
        Err(e) => {
            eprintln!("[telemetry-smoke] invalid JSONL: {e}");
            failed += 1;
        }
    }

    // Byte-stable determinism: an identical second run must serialize
    // identically (CSV and JSONL).
    let r2 = run_sampled();
    let t2 = r2.telemetry.as_ref().expect("telemetry recorded");
    if t.cluster_csv() == t2.cluster_csv() && jsonl == t2.to_jsonl() {
        println!("[telemetry-smoke] determinism ... ok");
    } else {
        eprintln!("[telemetry-smoke] exports differ between identical runs");
        failed += 1;
    }

    let results = crate::harness::csv_path("x");
    let results = results.parent().expect("csv dir").to_path_buf();

    let csv_out = results.join(format!("telemetry_{SCENARIO}.csv"));
    match std::fs::write(&csv_out, t.cluster_csv()) {
        Ok(()) => println!(
            "[telemetry-smoke] wrote {} ({} ticks)",
            csv_out.display(),
            t.ticks()
        ),
        Err(e) => {
            eprintln!(
                "[telemetry-smoke] could not write {}: {e}",
                csv_out.display()
            );
            failed += 1;
        }
    }

    let profile = r.profile.expect("self-profile recorded");
    println!("[telemetry-smoke] profile: {}", profile.summary());
    let report = profile.to_json(SCENARIO);
    if let Err(e) = validate_profile_json(&report) {
        eprintln!("[telemetry-smoke] malformed profile report: {e}");
        failed += 1;
    }
    let profile_out = results.join("BENCH_profile.json");
    match std::fs::write(&profile_out, &report) {
        Ok(()) => println!("[telemetry-smoke] wrote {}", profile_out.display()),
        Err(e) => {
            eprintln!(
                "[telemetry-smoke] could not write {}: {e}",
                profile_out.display()
            );
            failed += 1;
        }
    }
    failed
}
