//! The Section III analysis pipeline, end to end: synthesize a week of
//! HDFS audit-log traffic with the published statistical properties, then
//! run the exact analyses behind Figs. 2-5 of the paper.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use dare_repro::workload::analysis::{
    age_at_access_cdf, burst_window_distribution, rank_frequency, AnalysisOpts,
};
use dare_repro::workload::audit;
use dare_repro::workload::yahoo::{generate, YahooParams};

fn main() {
    let log = generate(&YahooParams::default(), 7);
    println!(
        "synthetic audit log: {} files ({} data + {} system), {} accesses over {}h",
        log.files.len(),
        log.num_data_files(),
        log.files.len() - log.num_data_files(),
        log.events.len(),
        log.window_hours,
    );

    // Fig. 2: heavy-tailed popularity.
    let ranked = rank_frequency(&log, AnalysisOpts::default());
    println!("\nfile popularity (Fig. 2 analysis):");
    for &r in &[1usize, 10, 100, 1000] {
        if r <= ranked.len() {
            println!("  rank {:>5}: {:>8.0} accesses", r, ranked[r - 1].1);
        }
    }
    let top = ranked[0].1;
    let p90 = ranked[(ranked.len() * 9 / 10).min(ranked.len() - 1)].1;
    println!(
        "  rank-1 : p90-rank ratio = {:.0}x (heavy tail)",
        top / p90.max(1.0)
    );

    // Fig. 3: age at access.
    let cdf = age_at_access_cdf(&log, true);
    println!("\nfile age at access (Fig. 3 analysis):");
    println!(
        "  median access age : {:>6.2}h (paper: 9.75h)",
        cdf.inverse(0.5)
    );
    println!(
        "  within first day  : {:>6.1}% (paper: ~80%)",
        cdf.fraction_leq(24.0) * 100.0
    );
    println!(
        "  within first week : {:>6.1}%",
        cdf.fraction_leq(168.0) * 100.0
    );

    // Figs. 4-5: burst windows.
    println!("\n80%-coverage burst windows (Figs. 4-5 analysis):");
    for (label, day) in [("whole week", None), ("day 2 only", Some(1u64))] {
        let dist = burst_window_distribution(&log, 0.8, day, false);
        let one_hour: f64 = dist
            .iter()
            .filter(|p| p.window_hours <= 1)
            .map(|p| p.fraction)
            .sum();
        let daily: f64 = dist
            .iter()
            .filter(|p| p.window_hours >= 97)
            .map(|p| p.fraction)
            .sum::<f64>()
            .max(0.0);
        println!(
            "  {label:>10}: {:>5.1}% of big files burst within 1h, {:>5.1}% are daily re-readers",
            one_hour * 100.0,
            daily * 100.0
        );
    }

    // Round-trip through the HDFS audit-log text format (the real-world
    // entry point: point parse_log at your own name-node logs).
    let text = audit::to_log(&log);
    let parsed = audit::parse_log(&text).expect("own format parses");
    println!(
        "\naudit-log round trip: {} lines -> {} files, {} opens",
        text.lines().count(),
        parsed.files.len(),
        parsed.events.len()
    );

    println!(
        "\ntakeaway: popularity is heavy-tailed and young-skewed, and hot sets\n\
         live at hour scale — the access structure DARE's sampling+aging tracks."
    );
}
