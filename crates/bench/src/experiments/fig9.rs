//! Fig. 9 — sensitivity to the replication budget, on wl2: panel (a) DARE
//! with greedy LRU eviction; panel (b) DARE with ElephantTrap eviction at
//! p = 0.9 and p = 0.3 (threshold = 1).
//!
//! The `job_locality` column is re-derived from each run's telemetry
//! series (the terminal per-job rows) rather than read off `RunMetrics`
//! directly; the sweep asserts the two paths agree bitwise, so the figure
//! doubles as a live cross-check of the sampler against the summarizer.

use crate::harness::{metric, replicate_experiment, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig, TelemetryConfig};
use dare_simcore::parallel::parallel_map;
use dare_simcore::SimDuration;

// The paper sweeps 0.0-0.9; we add 0.02 and 0.05 points because that is
// where the budget binds against the hot working set and the
// replicas-created curve shows its churn (the paper's smaller cluster
// budget was binding across more of its range).
const BUDGETS: [f64; 11] = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.8, 0.9];

fn sweep(policies: &[PolicyKind], title: &str, csv: &str, seed: u64, seeds: u32) {
    let st = replicate_experiment(
        title,
        &["policy", "scheduler", "budget"],
        &[metric("job_locality", 3), metric("blocks_per_job", 2)],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed, _| {
            let wl = dare_workload::wl2(seed);
            let mut runs = Vec::new();
            for &policy in policies {
                for &sched in &[SchedulerKind::Fifo, SchedulerKind::fair_default()] {
                    for &b in &BUDGETS {
                        runs.push((policy, sched, b));
                    }
                }
            }
            parallel_map(runs, |(policy, sched, b)| {
                let mut cfg = SimConfig::cct(policy, sched, seed);
                cfg.budget_frac = b;
                // A coarse interval keeps the series small; only the
                // terminal sample feeds the derived column.
                cfg = cfg.with_telemetry(TelemetryConfig {
                    interval: SimDuration::from_secs(30),
                });
                let r = dare_mapred::run(cfg, &wl);
                let derived = r
                    .telemetry_job_locality()
                    .expect("telemetry-enabled run with completed jobs");
                assert_eq!(
                    derived.to_bits(),
                    r.run.job_locality.to_bits(),
                    "telemetry-derived job locality drifted from the summarized metric"
                );
                (
                    vec![policy.label(), sched.label().to_string(), format!("{b:.2}")],
                    vec![derived, r.blocks_per_job],
                )
            })
        },
    );
    st.emit(csv);
}

/// Regenerate Fig. 9a (LRU eviction).
pub fn lru(seed: u64, seeds: u32) {
    sweep(
        &[PolicyKind::GreedyLru],
        "Fig. 9a: locality and blocks/job vs budget — DARE with LRU eviction (wl2)",
        "fig9a",
        seed,
        seeds,
    );
}

/// Regenerate Fig. 9b (ElephantTrap eviction, p = 0.9 and 0.3).
pub fn elephant(seed: u64, seeds: u32) {
    sweep(
        &[
            PolicyKind::ElephantTrap {
                p: 0.9,
                threshold: 1,
            },
            PolicyKind::ElephantTrap {
                p: 0.3,
                threshold: 1,
            },
        ],
        "Fig. 9b: locality and blocks/job vs budget — DARE with ElephantTrap eviction (thr=1, wl2)",
        "fig9b",
        seed,
        seeds,
    );
}

/// Both panels.
pub fn run(seed: u64, seeds: u32) {
    lru(seed, seeds);
    elephant(seed, seeds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_mapred::golden::{golden_scenarios, golden_workload};

    /// The figure's `job_locality` column is re-derived from telemetry;
    /// both derivations must agree bitwise on a full run (here the golden
    /// workload rather than wl2, to keep the test cheap).
    #[test]
    fn telemetry_derived_job_locality_matches_summary() {
        let wl = golden_workload();
        for (name, cfg) in golden_scenarios() {
            let cfg = cfg.with_telemetry(TelemetryConfig {
                interval: SimDuration::from_secs(30),
            });
            let r = dare_mapred::run(cfg, &wl);
            let derived = r.telemetry_job_locality().expect("completed jobs");
            assert_eq!(
                derived.to_bits(),
                r.run.job_locality.to_bits(),
                "{name}: telemetry path disagrees with summarize()"
            );
        }
    }
}
