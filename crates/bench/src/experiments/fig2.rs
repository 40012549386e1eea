//! Fig. 2 — file popularity in the (synthetic) Yahoo! audit log: number of
//! accesses per file vs popularity rank, plain and weighted by each file's
//! 128 MB block count. Both series are heavy-tailed straight-ish lines on
//! log-log axes.

use crate::harness::{metric, replicate_experiment, RowOrder, Table};
use dare_workload::analysis::{rank_frequency, AnalysisOpts};
use dare_workload::yahoo::{generate, YahooParams};

/// Regenerate Fig. 2 over `seeds` synthetic logs (downsampled console
/// ranks; full series in the CSV).
pub fn run(seed: u64, seeds: u32) {
    let st = replicate_experiment(
        "Fig. 2: file popularity vs rank (log-log; heavy tail)",
        &["rank"],
        &[metric("accesses", 0), metric("accesses_block_weighted", 0)],
        // The rank range can differ across logs; merge by rank value.
        RowOrder::NumericFirstLabel,
        seed,
        seeds,
        |seed, _| {
            let log = generate(&YahooParams::default(), seed);
            let plain = rank_frequency(&log, AnalysisOpts::default());
            let weighted = rank_frequency(
                &log,
                AnalysisOpts {
                    weight_by_blocks: true,
                    ..Default::default()
                },
            );
            plain
                .iter()
                .enumerate()
                .map(|(i, (rank, w))| {
                    let bw = weighted.get(i).map(|(_, w)| *w).unwrap_or(0.0);
                    (vec![rank.to_string()], vec![*w, bw])
                })
                .collect()
        },
    );

    // Console: print the decades only; the CSV holds everything.
    let mut console = Table::new(
        "Fig. 2 (sampled ranks): mean accesses per file vs rank",
        &["rank", "accesses", "accesses_block_weighted"],
    );
    for &r in &[1usize, 2, 5, 10, 20, 50, 100, 200, 500, 1000] {
        if let Some((_, sums)) = st.rows.iter().find(|(l, _)| l[0] == r.to_string()) {
            console.row(vec![
                r.to_string(),
                format!("{:.0}", sums[0].mean),
                format!("{:.0}", sums[1].mean),
            ]);
        }
    }
    console.print();
    st.emit("fig2");

    let top = st.rows.first().expect("non-empty log").1[0].mean;
    let mid = st.rows[st.rows.len() / 2].1[0].mean;
    println!(
        "skew check: rank-1 file has {:.0}x the accesses of the median file",
        top / mid.max(1.0)
    );
}
