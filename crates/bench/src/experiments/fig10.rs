//! Fig. 10 — DARE on the virtualized 100-node EC2 cluster, wl1, both
//! schedulers, three policies. The paper's headline: for comparable
//! locality gains, GMTT and slowdown improve *more* than on CCT (−19 % and
//! −25 %) because EC2's network/disk bandwidth ratio is lower.

use crate::experiments::fig7::{collect_matrix, LABELS, METRICS};
use crate::harness::{replicate_experiment, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig};

/// Run the experiment over `seeds` replicates and emit the table.
pub fn run(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        &format!("fig10: EC2 locality / GMTT (normalized) / slowdown ({seeds} seed(s))"),
        &LABELS,
        &METRICS,
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |s, _| {
            collect_matrix(s, &[dare_workload::wl1(s)], &|s| {
                SimConfig::ec2(PolicyKind::Vanilla, SchedulerKind::Fifo, s)
            })
        },
    );
    st.emit("fig10");
}
