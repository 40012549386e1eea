//! Fig. 6 — the file-access CDF driving the Section V experiments, plus the
//! empirical CDF actually realized by the synthesized workloads.

use crate::harness::{metric, replicate_experiment, RowOrder, Table};
use dare_workload::FilePopularity;

/// Regenerate Fig. 6 over `seeds` synthesized wl1 traces.
pub fn run(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Fig. 6: access-probability CDF over file ranks (model + realized wl1 trace)",
        &["rank"],
        &[metric("model_cdf", 4), metric("wl1_empirical_cdf", 4)],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed, _| {
            let pop = FilePopularity::experiment();
            let wl = dare_workload::wl1(seed);

            // Empirical access counts per file in the synthesized trace,
            // ranked.
            let mut counts = vec![0u32; wl.files.len()];
            for j in &wl.jobs {
                counts[j.file] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let total: u32 = counts.iter().sum();
            let mut empirical_cdf = Vec::with_capacity(counts.len());
            let mut acc = 0u32;
            for &c in &counts {
                acc += c;
                empirical_cdf.push(acc as f64 / total as f64);
            }

            pop.cdf_series()
                .into_iter()
                .map(|(rank, model_cdf)| {
                    (
                        vec![rank.to_string()],
                        vec![
                            model_cdf,
                            empirical_cdf.get(rank - 1).copied().unwrap_or(1.0),
                        ],
                    )
                })
                .collect()
        },
    );
    // CSV only; the console gets the sampled-rank digest below.
    crate::harness::write_csv("fig6", &st.table);

    let mut console = Table::new(
        "Fig. 6 (sampled ranks)",
        &["rank", "model_cdf", "wl1_empirical_cdf"],
    );
    for &r in &[1usize, 5, 10, 20, 40, 60, 80, 100, 128] {
        if let Some((_, sums)) = st.rows.iter().find(|(l, _)| l[0] == r.to_string()) {
            console.row(vec![
                r.to_string(),
                format!("{:.3}", sums[0].mean),
                format!("{:.3}", sums[1].mean),
            ]);
        }
    }
    console.print();
}
