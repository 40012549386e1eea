//! Fig. 11 — uniformity of replica placement: coefficient of variation of
//! the per-node popularity indices before dynamic replication (after
//! ingest) and after a full 500-job wl1 run with DARE/ElephantTrap
//! (budget = 0.2, threshold = 1), FIFO scheduler, sweeping `p`.
//! Smaller cv = more uniform spread of popular bytes.

use crate::harness::{metric, replicate_experiment, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig};
use dare_simcore::parallel::parallel_map;

/// Regenerate Fig. 11 over `seeds` replicates.
pub fn run(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Fig. 11: popularity-index coefficient of variation vs p (before vs after DARE; smaller = more uniform)",
        &["p"],
        &[metric("cv_before", 3), metric("cv_after", 3)],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed, _| {
            let wl = dare_workload::wl1(seed);
            let ps: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
            parallel_map(ps, |p| {
                let mut cfg = SimConfig::cct(
                    PolicyKind::ElephantTrap { p, threshold: 1 },
                    SchedulerKind::Fifo,
                    seed,
                );
                cfg.budget_frac = 0.2;
                let r = dare_mapred::run(cfg, &wl);
                (vec![format!("{p:.1}")], vec![r.cv_before, r.cv_after])
            })
        },
    );
    st.emit("fig11");
}
