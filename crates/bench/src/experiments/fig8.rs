//! Fig. 8 — sensitivity of DARE/ElephantTrap to the sampling probability
//! `p` (panel a: threshold = 1, budget = 0.2) and to the aging threshold
//! (panel b: p = 0.9, budget = 0.5), on wl2, under both schedulers.
//! Top panels: data locality; bottom panels: blocks replicated per job.

use crate::harness::{metric, replicate_experiment, RowOrder};
use dare_core::PolicyKind;
use dare_mapred::{SchedulerKind, SimConfig};
use dare_simcore::parallel::parallel_map;

/// Regenerate Fig. 8a: the `p` sweep, over `seeds` replicates.
pub fn sweep_p(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Fig. 8a: locality and blocks/job vs ElephantTrap probability p (thr=1, budget=0.2, wl2)",
        &["scheduler", "p"],
        &[metric("job_locality", 3), metric("blocks_per_job", 2)],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed, _| {
            let wl = dare_workload::wl2(seed);
            let ps: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
            let mut runs = Vec::new();
            for &sched in &[SchedulerKind::Fifo, SchedulerKind::fair_default()] {
                for &p in &ps {
                    runs.push((sched, p));
                }
            }
            parallel_map(runs, |(sched, p)| {
                let mut cfg =
                    SimConfig::cct(PolicyKind::ElephantTrap { p, threshold: 1 }, sched, seed);
                cfg.budget_frac = 0.2;
                let r = dare_mapred::run(cfg, &wl);
                (
                    vec![sched.label().to_string(), format!("{p:.1}")],
                    vec![r.run.job_locality, r.blocks_per_job],
                )
            })
        },
    );
    st.emit("fig8a");
}

/// Regenerate Fig. 8b: the threshold sweep. The paper runs at budget 0.5
/// where the threshold barely matters ("not too sensitive"); we also sweep
/// at a binding budget of 0.05 where the aging discipline actually has to
/// choose victims, so the mechanism is visible.
pub fn sweep_threshold(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Fig. 8b: locality and blocks/job vs aging threshold (p=0.9; paper budget=0.5 plus binding budget=0.05; wl2)",
        &["budget", "scheduler", "threshold"],
        &[
            metric("job_locality", 3),
            metric("blocks_per_job", 2),
            metric("evictions", 0),
        ],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed, _| {
            let wl = dare_workload::wl2(seed);
            let thresholds: Vec<u64> = vec![1, 2, 3, 4, 5];
            let mut runs = Vec::new();
            for &budget in &[0.5f64, 0.05] {
                for &sched in &[SchedulerKind::Fifo, SchedulerKind::fair_default()] {
                    for &thr in &thresholds {
                        runs.push((budget, sched, thr));
                    }
                }
            }
            parallel_map(runs, |(budget, sched, thr)| {
                let mut cfg = SimConfig::cct(
                    PolicyKind::ElephantTrap { p: 0.9, threshold: thr },
                    sched,
                    seed,
                );
                cfg.budget_frac = budget;
                let r = dare_mapred::run(cfg, &wl);
                (
                    vec![
                        format!("{budget:.2}"),
                        sched.label().to_string(),
                        thr.to_string(),
                    ],
                    vec![r.run.job_locality, r.blocks_per_job, r.evictions as f64],
                )
            })
        },
    );
    st.emit("fig8b");
}

/// Both panels.
pub fn run(seed: u64, seeds: u32) {
    sweep_p(seed, seeds);
    sweep_threshold(seed, seeds);
}
