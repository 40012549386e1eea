//! Running the farm matrix: one engine run per [`Cell`], fanned across
//! worker threads with results kept in matrix order.

use crate::spec::{cells, jobs_per_cell, Cell, Metrics};
use dare_core::PolicyKind;
use dare_mapred::{FaultPlan, FaultSpec, SchedulerKind, SimConfig};
use dare_simcore::parallel::parallel_map_threads;
use dare_workload::swim::{synthesize, SwimParams};

fn fault_spec(level: &str, horizon_secs: u64) -> Option<FaultSpec> {
    match level {
        "calm" => None,
        "light" => Some(FaultSpec {
            horizon_secs,
            kills: 1,
            crashes: 3,
            mean_down_secs: 60,
            rack_outages: 0,
            stragglers: 2,
            straggler_factor: 3.0,
            corruption_rate_per_node_hour: 0.0,
        }),
        "heavy" => Some(FaultSpec {
            horizon_secs,
            kills: 3,
            crashes: 8,
            mean_down_secs: 90,
            rack_outages: 2,
            stragglers: 4,
            straggler_factor: 5.0,
            corruption_rate_per_node_hour: 0.0,
        }),
        other => panic!("unknown fault level {other:?}"),
    }
}

/// Run one cell of the matrix through the real engine. Pure function of
/// the cell (coordinates + derived seed) and `quick` — this is what
/// makes the merged outputs byte-stable across thread counts, and the
/// determinism test in `tests/farm_determinism.rs` holds this module to
/// it.
pub fn run_cell(cell: &Cell, quick: bool) -> Metrics {
    let seed = cell.seed;
    let [scheduler, policy, profile, level] = cell.coords;
    let jobs = jobs_per_cell(quick);
    let wl = synthesize(
        "wl1-farm",
        &SwimParams {
            jobs,
            ..SwimParams::wl1()
        },
        seed,
    );
    let span = wl
        .jobs
        .last()
        .map(|j| j.arrival.as_secs_f64())
        .unwrap_or(0.0) as u64;
    let horizon = span.max(30) * 3 / 4;

    let sched = match scheduler {
        "fifo" => SchedulerKind::Fifo,
        "fair" => SchedulerKind::fair_default(),
        other => panic!("unknown scheduler {other:?}"),
    };
    let policy = match policy {
        "vanilla" => PolicyKind::Vanilla,
        "lru" => PolicyKind::GreedyLru,
        "et" => PolicyKind::elephant_default(),
        other => panic!("unknown policy {other:?}"),
    };
    let mut cfg = match profile {
        "cct" => SimConfig::cct(policy, sched, seed),
        "ec2" => SimConfig::ec2(policy, sched, seed),
        other => panic!("unknown profile {other:?}"),
    };
    cfg = cfg
        .with_speculation(Default::default())
        .with_invariant_checks();

    if let Some(mut fs) = fault_spec(level, horizon) {
        let topo = cfg.topology();
        // On a single-rack cluster a rack outage takes every node down,
        // so it overlaps any other crash or kill before it ends and no
        // valid plan has both: the cluster-wide outage is left out.
        if topo.racks() == 1 {
            fs.rack_outages = 0;
        }
        // Distinct plan stream per level tag, mirroring the resilience
        // sweep's `seed ^ (level << 32)` idiom.
        let tag = if level == "light" { 1u64 } else { 2u64 };
        let plan = FaultPlan::generate_valid(&fs, &topo, 0, seed ^ (tag << 32));
        cfg = cfg.with_faults(plan);
    }

    let r = dare_mapred::run(cfg, &wl);
    [
        r.run.job_locality,
        r.run.locality,
        r.run.gmtt_secs,
        r.run.p95_slowdown,
        r.run.failed_jobs as f64,
        r.faults.blocks_re_replicated as f64,
    ]
}

/// A completed matrix: every cell's metrics, in [`cells`] order
/// (independent of thread count).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Root seed every cell seed is derived from.
    pub base_seed: u64,
    /// Replicates per coordinate.
    pub seeds: u32,
    /// Whether this is the CI smoke matrix.
    pub quick: bool,
    /// Per-cell results.
    pub runs: Vec<(Cell, Metrics)>,
}

/// Run the matrix with `f` per cell on `threads` workers.
pub fn sweep<F>(base_seed: u64, seeds: u32, quick: bool, threads: usize, f: F) -> Sweep
where
    F: Fn(&Cell) -> Metrics + Sync,
{
    let runs = parallel_map_threads(cells(base_seed, seeds, quick), threads, |c| {
        let m = f(&c);
        (c, m)
    });
    Sweep {
        base_seed,
        seeds,
        quick,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_follow_matrix_order_at_any_thread_count() {
        let f = |c: &Cell| {
            let mut m = [0.0; 6];
            m[0] = c.seed as f64;
            m[1] = c.replicate as f64;
            m
        };
        let one = sweep(7, 4, false, 1, f);
        let eight = sweep(7, 4, false, 8, f);
        assert_eq!(one, eight);
        let expected = cells(7, 4, false);
        assert_eq!(one.runs.len(), expected.len());
        for ((cell, values), want) in one.runs.iter().zip(&expected) {
            assert_eq!(cell, want);
            assert_eq!(values[0], cell.seed as f64);
            assert_eq!(values[1], cell.replicate as f64);
        }
    }
}
