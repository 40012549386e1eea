//! Fig. 7 — data locality, normalized GMTT, and mean slowdown on the
//! 20-node CCT cluster, for wl1 and wl2 under FIFO and Fair scheduling,
//! comparing vanilla Hadoop, DARE/LRU, and DARE/ElephantTrap
//! (p = 0.3, threshold = 1, budget = 0.2).
//!
//! With `--seeds N` the whole matrix is replicated over N derived seeds;
//! the table's value columns become means and `_std`/`_ci95` columns are
//! appended. GMTT is normalized against the *same seed's* vanilla run of
//! the same (workload, scheduler) cell — the common-random-numbers
//! pairing the farm's seed rule guarantees — before averaging.

use crate::harness::{metric, replicate_experiment, run_matrix, MetricCol, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig};

/// Paper reference points for the README/EXPERIMENTS comparison.
pub const PAPER_NOTES: &str = "paper: FIFO locality improves >7x; Fair reaches ~100% on wl2; \
GMTT -16%, slowdown -20% (CCT)";

/// Label columns shared with Fig. 10.
pub(crate) const LABELS: [&str; 3] = ["workload", "scheduler", "policy"];

/// Metric columns shared with Fig. 10.
pub(crate) const METRICS: [MetricCol; 7] = [
    metric("job_locality", 3),
    metric("task_locality", 3),
    metric("gmtt_s", 1),
    metric("gmtt_norm", 3),
    metric("slowdown", 3),
    metric("blocks_per_job", 2),
    metric("replicas", 0),
];

/// One seed's matrix rows for a set of workloads on a base-config
/// builder; shared with Fig. 10 (which runs wl1 on the EC2 profile).
pub(crate) fn collect_matrix(
    seed: u64,
    workloads: &[dare_workload::Workload],
    base: &dyn Fn(u64) -> SimConfig,
) -> Vec<(Vec<String>, Vec<f64>)> {
    let schedulers = [SchedulerKind::Fifo, SchedulerKind::fair_default()];
    let mut rows = Vec::new();
    for wl in workloads {
        let cells = run_matrix(&base(seed), wl, &schedulers);
        for c in &cells {
            // Normalize GMTT against the vanilla run of the same
            // (workload, scheduler) cell at this seed.
            let vanilla = cells
                .iter()
                .find(|v| {
                    v.workload == c.workload
                        && v.scheduler.label() == c.scheduler.label()
                        && v.policy == PolicyKind::Vanilla
                })
                .expect("matrix includes vanilla");
            let norm = dare_metrics::normalized_gmtt(&c.result.run, &vanilla.result.run);
            rows.push((
                vec![
                    c.workload.clone(),
                    c.scheduler.label().to_string(),
                    c.policy.label(),
                ],
                vec![
                    c.result.run.job_locality,
                    c.result.run.locality,
                    c.result.run.gmtt_secs,
                    norm,
                    c.result.run.mean_slowdown,
                    c.result.blocks_per_job,
                    c.result.replicas_created as f64,
                ],
            ));
        }
    }
    rows
}

/// Run the experiment over `seeds` replicates and emit the table.
pub fn run(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        &format!("fig7: locality / GMTT (normalized) / slowdown ({seeds} seed(s))"),
        &LABELS,
        &METRICS,
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |s| {
            collect_matrix(s, &[dare_workload::wl1(s), dare_workload::wl2(s)], &|s| {
                SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, s)
            })
        },
    );
    st.emit("fig7");
}
