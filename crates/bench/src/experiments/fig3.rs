//! Fig. 3 — CDF of file age at time of access. The paper's annotations:
//! 50 % of accesses happen before age ≈ 9h45m, ~80 % within the first day.

use crate::harness::{metric, replicate_experiment, RowOrder};
use dare_workload::analysis::age_at_access_cdf;
use dare_workload::yahoo::{generate, YahooParams};

/// Regenerate Fig. 3 over `seeds` synthetic logs.
pub fn run(seed: u64, seeds: u32) {
    let points_h: Vec<f64> = vec![
        0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 9.75, 12.0, 18.0, 24.0, 48.0, 72.0, 96.0, 120.0, 168.0,
    ];
    let st = replicate_experiment(
        "Fig. 3: CDF of file age at access (paper: 50% by 9h45m, ~80% within 1 day)",
        &["age_hours"],
        &[metric("fraction_of_accesses", 3)],
        RowOrder::FirstAppearance,
        seed,
        seeds,
        |seed, _| {
            let log = generate(&YahooParams::default(), seed);
            let cdf = age_at_access_cdf(&log, true);
            cdf.series(&points_h)
                .into_iter()
                .map(|(x, f)| (vec![format!("{x}")], vec![f]))
                .collect()
        },
    );
    st.emit("fig3");

    // Headline annotations from the base-seed log (the committed replicate).
    let cdf = age_at_access_cdf(&generate(&YahooParams::default(), seed), true);
    println!(
        "median access age: {:.1}h (paper: 9.75h); within one day: {:.1}% (paper: ~80%)",
        cdf.inverse(0.5),
        cdf.fraction_leq(24.0) * 100.0
    );
}
