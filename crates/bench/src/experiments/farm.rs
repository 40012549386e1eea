//! The factorial experiment farm: the paper's evaluation matrix driven
//! through the real engine.
//!
//! Four axes — schedulers × replication policies × cluster profiles ×
//! fault levels — times N replicate seeds. Scheduler and policy are
//! *treatment* axes: they share one seed per replicate, giving paired
//! comparisons on common random numbers. Profile and fault level are
//! *environment* axes: they enter the seed (see [`crate::harness::cell_seed`]), so each
//! draws its own workload and fault plan. Every cell is a pure function of its
//! coordinates and seed: workload synthesis, fault-plan generation, and
//! the engine run all draw from `cell.seed`.
//!
//! The matrix runs twice — single-threaded and on all cores — and the
//! merged outputs are asserted byte-identical before anything is
//! written, so the files below are certified thread-count independent on
//! every invocation:
//!
//! - `results/farm_cells.csv` — one row per (cell, replicate), sorted by
//!   coordinate key then replicate;
//! - `results/farm_agg.csv` — one row per coordinate with
//!   `<metric>_mean,<metric>_std,<metric>_ci95` columns;
//! - `results/farm_merged.json` — the same aggregate, machine readable.
//!
//! Wall-clock goes to `results/BENCH_farm.json` only: cells/sec at each
//! thread count and the scaling efficiency `(t1/tN)/N`. Set
//! `BENCH_QUICK=1` for the CI smoke matrix (2×2×2 cells, fewer jobs).

//!
//! The matrix lives in [`crate::spec`], the engine runs in
//! [`crate::run`] and the writers in [`crate::merge`].

use crate::harness::csv_path;
use crate::run::{run_cell, sweep};
use crate::spec::{cells, jobs_per_cell};

fn write(name: &str, ext: &str, contents: &str) {
    let mut path = csv_path(name);
    path.set_extension(ext);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("[farm] wrote {}", path.display()),
        Err(e) => eprintln!("[farm] could not write {}: {e}", path.display()),
    }
}

/// Execute the farm: the matrix at 1 thread and at all cores, a runtime
/// byte-stability assertion over the merged outputs, the three merged
/// files, and the `BENCH_farm.json` throughput report.
pub fn run(seed: u64, seeds: u32) {
    let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0");
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let cells = cells(seed, seeds, quick).len();
    println!(
        "[farm] {} cells ({} coordinates x {} seeds), single-threaded pass then {} threads",
        cells,
        cells / seeds as usize,
        seeds,
        threads
    );

    let t0 = std::time::Instant::now();
    let single = sweep(seed, seeds, quick, 1, |c| run_cell(c, quick));
    let t_single = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let parallel = sweep(seed, seeds, quick, threads, |c| run_cell(c, quick));
    let t_multi = t1.elapsed().as_secs_f64();

    // The whole point of the farm: merged bytes must not depend on
    // thread count. Enforced on every run, not just in the test suite.
    let cells_csv = single.cells_csv();
    let agg_csv = single.agg_csv();
    let json = single.merged_json();
    assert_eq!(
        cells_csv,
        parallel.cells_csv(),
        "per-cell CSV differs across thread counts"
    );
    assert_eq!(
        agg_csv,
        parallel.agg_csv(),
        "aggregate CSV differs across thread counts"
    );
    assert_eq!(
        json,
        parallel.merged_json(),
        "merged JSON differs across thread counts"
    );
    println!("[farm] merged outputs byte-identical at 1 vs {threads} threads");

    write("farm_cells", "csv", &cells_csv);
    write("farm_agg", "csv", &agg_csv);
    write("farm_merged", "json", &json);

    let cps_single = cells as f64 / t_single.max(1e-9);
    let cps_multi = cells as f64 / t_multi.max(1e-9);
    let efficiency = (t_single / t_multi.max(1e-9)) / threads as f64;
    println!(
        "[farm] {cells} cells: {t_single:.2}s at 1 thread ({cps_single:.2} cells/s), \
         {t_multi:.2}s at {threads} threads ({cps_multi:.2} cells/s, {:.0}% scaling efficiency)",
        efficiency * 100.0
    );

    let bench = format!(
        "{{\n  \"config\": {{\"quick\": {quick}, \"base_seed\": {seed}, \"seeds\": {seeds}, \
         \"cells\": {cells}, \"jobs_per_cell\": {}}},\n\
         \"single\": {{\"threads\": 1, \"secs\": {t_single:.3}, \"cells_per_sec\": {cps_single:.3}}},\n\
         \"parallel\": {{\"threads\": {threads}, \"secs\": {t_multi:.3}, \"cells_per_sec\": {cps_multi:.3}}},\n\
         \"scaling_efficiency\": {efficiency:.3},\n  \"byte_stable\": true\n}}\n",
        jobs_per_cell(quick),
    );
    write("BENCH_farm", "json", &bench);
}
