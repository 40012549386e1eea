//! End-to-end determinism of the experiment farm through the *real*
//! engine: the quick farm matrix, run single-threaded and with eight
//! workers, must merge to byte-identical CSV and JSON. Per-cell results
//! are a pure function of (coordinates, derived seed), never of thread
//! count or completion order.

use dare_bench::harness::cell_seed;
use dare_bench::run::{run_cell, sweep};
use dare_bench::spec::{cells, METRICS};

#[test]
fn quick_farm_matrix_is_byte_stable_across_thread_counts() {
    // 2 schedulers x 2 policies x 1 profile x 2 fault levels x 2 seeds
    // = 16 engine runs per pass; quick cells use 6-job workloads.
    let run = |threads| sweep(20110926, 2, true, threads, |c| run_cell(c, true));
    let one = run(1);
    let eight = run(8);

    assert_eq!(
        one.cells_csv(),
        eight.cells_csv(),
        "per-cell CSV depends on thread count"
    );
    assert_eq!(
        one.agg_csv(),
        eight.agg_csv(),
        "aggregate CSV depends on thread count"
    );
    assert_eq!(
        one.merged_json(),
        eight.merged_json(),
        "merged JSON depends on thread count"
    );

    // Sanity on the content itself: the calm cells completed all jobs
    // without failures.
    let jobs_failed = METRICS.iter().position(|m| *m == "jobs_failed").unwrap();
    for (cell, values) in &one.runs {
        if cell.coords[3] == "calm" {
            assert_eq!(
                values[jobs_failed],
                0.0,
                "calm cell {} failed jobs",
                cell.key()
            );
        }
    }
}

#[test]
fn farm_seeds_anchor_to_the_legacy_single_seed_runs() {
    // Replicate 0 of an all-treatment coordinate reuses the base seed
    // verbatim, which keeps `--seeds 1` output aligned with the
    // historical single-seed tables.
    assert_eq!(cell_seed(20110926, "", 0), 20110926);
    // The farm's cells hash their seeded axes (profile, faults) in, so
    // even replicate 0 leaves the base seed; the same coordinate at
    // different replicates draws different seeds.
    let cells = cells(7, 3, true);
    assert!(cells.iter().all(|c| c.seed != 7));
    let seeds: Vec<u64> = cells
        .iter()
        .filter(|c| c.coords == cells[0].coords)
        .map(|c| c.seed)
        .collect();
    assert_eq!(seeds.len(), 3);
    assert_ne!(seeds[0], seeds[1]);
    assert_ne!(seeds[1], seeds[2]);
}
