//! End-to-end determinism of the experiment farm through the *real*
//! engine: the quick farm, run on one worker and on eight, must merge to
//! identical tables. Each run is a pure function of its coordinates and
//! derived seed, never of thread count or completion order.

use dare_bench::experiments::farm::{env_seed, table, LABELS, METRICS};
use dare_bench::harness::{cell_seed, replicate_experiment, RowOrder};

#[test]
fn quick_farm_matrix_is_byte_stable_across_thread_counts() {
    // 1 profile x 2 fault levels x 2 schedulers x 3 policies x 2 seeds
    // = 24 engine runs per pass; quick workloads have 6 jobs.
    let one = table(20110926, 2, true, 1);
    let eight = table(20110926, 2, true, 8);
    assert_eq!(
        one.table.to_csv(),
        eight.table.to_csv(),
        "farm table depends on thread count"
    );
    assert_eq!(
        one.rows, eight.rows,
        "farm summaries depend on thread count"
    );
    assert_eq!(one.rows.len(), 2 * 2 * 3);

    // Sanity on the content itself: the calm cells completed all jobs
    // without failures.
    let faults = LABELS.iter().position(|&l| l == "faults").unwrap();
    let jobs_failed = METRICS
        .iter()
        .position(|m| m.name == "jobs_failed")
        .unwrap();
    for (labels, sums) in &one.rows {
        assert_eq!(sums[jobs_failed].n, 2);
        if labels[faults] == "calm" {
            assert_eq!(
                sums[jobs_failed].mean, 0.0,
                "calm cell {labels:?} failed jobs"
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
    // The harness hands each replicate its index next to its seed, and
    // the farm hashes its seeded axes (profile, faults) in, so even
    // replicate 0 leaves the base seed; the same environment at
    // different replicates draws different seeds.
    let seeds = std::cell::RefCell::new(Vec::new());
    replicate_experiment("t", &[], &[], RowOrder::FirstAppearance, 7, 3, |s, rep| {
        assert_eq!(s, cell_seed(7, "", rep));
        seeds.borrow_mut().push(env_seed(7, "cct", "heavy", rep));
        Vec::new()
    });
    let seeds = seeds.into_inner();
    assert_eq!(seeds.len(), 3);
    assert!(seeds.iter().all(|&s| s != 7));
    assert_ne!(seeds[0], seeds[1]);
    assert_ne!(seeds[1], seeds[2]);
    assert_eq!(
        env_seed(20110926, "ec2", "heavy", 2),
        cell_seed(20110926, "faults=heavy;profile=ec2", 2)
    );
}
