//! Figs. 4 and 5 — the 80 %-coverage burst-window distributions.
//!
//! For each "big file" (the most-accessed files jointly covering ≥ 80 % of
//! accesses, system files excluded) we find the smallest number of
//! consecutive one-hour slots containing ≥ 80 % of its accesses. Fig. 4
//! runs over the whole week (the spike at ~121 h marks daily re-read
//! files); Fig. 5 restricts to day 2, where almost all files burst within
//! an hour.

use crate::harness::{metric, replicate_experiment, RowOrder};
use dare_workload::analysis::burst_window_distribution;
use dare_workload::yahoo::{generate, YahooParams};

fn emit(name: &str, title: &str, day: Option<u64>, seed: u64, seeds: u32) {
    let st = replicate_experiment(
        title,
        &["window_hours"],
        &[metric("fraction_plain", 4), metric("fraction_weighted", 4)],
        // The set of observed window sizes varies per log; merge by size.
        RowOrder::NumericFirstLabel,
        seed,
        seeds,
        |seed, _| {
            let log = generate(&YahooParams::default(), seed);
            let plain = burst_window_distribution(&log, 0.8, day, false);
            let weighted = burst_window_distribution(&log, 0.8, day, true);

            // Merge the two series over the union of window sizes.
            let mut windows: Vec<usize> = plain
                .iter()
                .map(|p| p.window_hours)
                .chain(weighted.iter().map(|p| p.window_hours))
                .collect();
            windows.sort_unstable();
            windows.dedup();
            windows
                .into_iter()
                .map(|w| {
                    let f1 = plain
                        .iter()
                        .find(|p| p.window_hours == w)
                        .map(|p| p.fraction)
                        .unwrap_or(0.0);
                    let f2 = weighted
                        .iter()
                        .find(|p| p.window_hours == w)
                        .map(|p| p.fraction)
                        .unwrap_or(0.0);
                    (vec![w.to_string()], vec![f1, f2])
                })
                .collect()
        },
    );
    st.emit(name);

    let burst_mass: f64 = st
        .rows
        .iter()
        .filter(|(l, _)| l[0].parse::<usize>().is_ok_and(|w| w <= 1))
        .map(|(_, s)| s[0].mean)
        .sum();
    let daily_mass: f64 = st
        .rows
        .iter()
        .filter(|(l, _)| l[0].parse::<usize>().is_ok_and(|w| w >= 97))
        .map(|(_, s)| s[0].mean)
        .sum();
    println!(
        "mass at 1h windows: {:.1}%; mass at >=97h windows (daily re-readers): {:.1}%",
        burst_mass * 100.0,
        daily_mass * 100.0
    );
}

/// Regenerate Fig. 4 (whole week).
pub fn fig4(seed: u64, seeds: u32) {
    emit(
        "fig4",
        "Fig. 4: 80%-coverage window sizes over the week (spike near 121h = daily re-reads)",
        None,
        seed,
        seeds,
    );
}

/// Regenerate Fig. 5 (day 2 only).
pub fn fig5(seed: u64, seeds: u32) {
    emit(
        "fig5",
        "Fig. 5: 80%-coverage window sizes within day 2 (bursts within one hour dominate)",
        Some(1),
        seed,
        seeds,
    );
}
