//! The Section III trace analyses: the exact computations behind Figs. 2-5,
//! runnable over any [`AccessLog`].

use crate::yahoo::AccessLog;
use dare_simcore::stats::{Ecdf, RankFrequency};

/// Options shared by the analyses.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOpts {
    /// Exclude system (job.jar/xml/split) files, as the paper does.
    pub exclude_system: bool,
    /// Weight each access by the file's block count (Fig. 2 bottom panel).
    pub weight_by_blocks: bool,
}

impl Default for AnalysisOpts {
    fn default() -> Self {
        AnalysisOpts {
            exclude_system: true,
            weight_by_blocks: false,
        }
    }
}

/// Fig. 2 — number of accesses per file vs popularity rank.
/// Returns `(rank, weight)` sorted by descending weight (rank is 1-based).
pub fn rank_frequency(log: &AccessLog, opts: AnalysisOpts) -> Vec<(usize, f64)> {
    let mut rf = RankFrequency::new();
    for e in &log.events {
        let f = &log.files[e.file as usize];
        if opts.exclude_system && f.is_system {
            continue;
        }
        let w = if opts.weight_by_blocks {
            f.num_blocks as f64
        } else {
            1.0
        };
        rf.add(e.file as u64, w);
    }
    rf.ranked()
}

/// Fig. 3 — empirical CDF of file age (hours) at time of access.
pub fn age_at_access_cdf(log: &AccessLog, exclude_system: bool) -> Ecdf {
    let ages: Vec<f64> = log
        .events
        .iter()
        .filter(|e| !(exclude_system && log.files[e.file as usize].is_system))
        .map(|e| {
            let f = &log.files[e.file as usize];
            e.time.saturating_since(f.created).as_hours_f64()
        })
        .collect();
    Ecdf::new(ages)
}

/// The per-file burst-window statistic behind Figs. 4-5: the smallest
/// number of consecutive one-hour slots containing at least `coverage`
/// (e.g. 0.8) of the file's accesses.
///
/// Returns `None` when the file had no accesses in the analysis range.
pub fn min_window_hours(access_hours: &[u64], total_slots: usize, coverage: f64) -> Option<usize> {
    if access_hours.is_empty() {
        return None;
    }
    let mut slots = vec![0u64; total_slots];
    for &h in access_hours {
        let idx = (h as usize).min(total_slots - 1);
        slots[idx] += 1;
    }
    let total: u64 = slots.iter().sum();
    let need = (coverage * total as f64).ceil() as u64;
    // Sliding window over slot counts, growing until some window qualifies.
    for w in 1..=total_slots {
        let mut sum: u64 = slots[..w].iter().sum();
        if sum >= need {
            return Some(w);
        }
        for start in 1..=(total_slots - w) {
            sum = sum - slots[start - 1] + slots[start + w - 1];
            if sum >= need {
                return Some(w);
            }
        }
    }
    Some(total_slots)
}

/// One point of the Figs. 4-5 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Window size in hours.
    pub window_hours: usize,
    /// Fraction of (possibly weighted) big files whose minimal
    /// 80 %-coverage window is exactly this size.
    pub fraction: f64,
}

/// Figs. 4-5 — distribution of minimal 80 %-coverage window sizes over the
/// "big files" (the most-accessed files jointly covering ≥ 80 % of all
/// accesses), optionally restricted to one day and optionally weighted by
/// each file's access count.
pub fn burst_window_distribution(
    log: &AccessLog,
    coverage: f64,
    day: Option<u64>,
    weighted: bool,
) -> Vec<WindowPoint> {
    assert!((0.0..=1.0).contains(&coverage));
    // Collect per-file access hours (excluding system files; the paper does).
    let mut per_file: std::collections::BTreeMap<u32, Vec<u64>> = std::collections::BTreeMap::new();
    let (lo_h, hi_h) = match day {
        Some(d) => (d * 24, (d + 1) * 24),
        None => (0, log.window_hours),
    };
    for e in &log.events {
        let f = &log.files[e.file as usize];
        if f.is_system {
            continue;
        }
        let h = (e.time.as_secs_f64() / 3600.0) as u64;
        if h >= lo_h && h < hi_h {
            per_file.entry(e.file).or_default().push(h - lo_h);
        }
    }
    if per_file.is_empty() {
        return Vec::new();
    }

    // "Big files": most-accessed files covering >= 80% of total accesses.
    let mut by_count: Vec<(&u32, usize)> = per_file.iter().map(|(f, v)| (f, v.len())).collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let total: usize = by_count.iter().map(|(_, c)| c).sum();
    let mut acc = 0usize;
    let mut big: Vec<u32> = Vec::new();
    for (f, c) in by_count {
        if acc as f64 >= 0.8 * total as f64 {
            break;
        }
        acc += c;
        big.push(*f);
    }

    let slots = (hi_h - lo_h) as usize;
    let mut hist: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    let mut denom = 0.0;
    for f in big {
        let hours = &per_file[&f];
        if let Some(w) = min_window_hours(hours, slots, coverage) {
            let weight = if weighted { hours.len() as f64 } else { 1.0 };
            *hist.entry(w).or_insert(0.0) += weight;
            denom += weight;
        }
    }
    hist.into_iter()
        .map(|(w, cnt)| WindowPoint {
            window_hours: w,
            fraction: cnt / denom,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yahoo::{generate, YahooParams};

    fn log() -> AccessLog {
        generate(
            &YahooParams {
                files: 300,
                total_accesses: 30_000,
                system_jobs: 60,
                ..YahooParams::default()
            },
            11,
        )
    }

    #[test]
    fn min_window_basics() {
        // 10 accesses all in slot 3: window of 1 suffices.
        assert_eq!(min_window_hours(&[3; 10], 24, 0.8), Some(1));
        // Spread evenly over slots 0..10: need 8 slots for 80 % of 10.
        let hours: Vec<u64> = (0..10).collect();
        assert_eq!(min_window_hours(&hours, 24, 0.8), Some(8));
        // Empty: none.
        assert_eq!(min_window_hours(&[], 24, 0.8), None);
        // Single access: 1.
        assert_eq!(min_window_hours(&[23], 24, 0.8), Some(1));
        // Daily pattern across a week: 7 equal groups, 80 % needs 6 groups
        // => 5*24+1 = 121 slots.
        let daily: Vec<u64> = (0..7).map(|d| d * 24 + 9).collect();
        assert_eq!(min_window_hours(&daily, 168, 0.8), Some(121));
    }

    #[test]
    fn rank_frequency_is_descending_and_excludes_system() {
        let l = log();
        let rf = rank_frequency(&l, AnalysisOpts::default());
        assert!(!rf.is_empty());
        for w in rf.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // system files have huge counts; including them inflates rank 1
        let with_sys = rank_frequency(
            &l,
            AnalysisOpts {
                exclude_system: false,
                ..Default::default()
            },
        );
        assert!(with_sys.len() > rf.len());
    }

    #[test]
    fn weighted_rank_frequency_differs() {
        let l = log();
        let plain = rank_frequency(&l, AnalysisOpts::default());
        let weighted = rank_frequency(
            &l,
            AnalysisOpts {
                weight_by_blocks: true,
                ..Default::default()
            },
        );
        let sum_plain: f64 = plain.iter().map(|(_, w)| w).sum();
        let sum_weighted: f64 = weighted.iter().map(|(_, w)| w).sum();
        assert!(sum_weighted > sum_plain, "block weights inflate mass");
    }

    #[test]
    fn age_cdf_hits_fig3_anchors() {
        let l = log();
        let cdf = age_at_access_cdf(&l, true);
        let median = cdf.inverse(0.5);
        let day_frac = cdf.fraction_leq(24.0);
        assert!((3.0..20.0).contains(&median), "median {median}h");
        assert!(day_frac > 0.55, "within-a-day fraction {day_frac}");
        // Including system files skews much younger.
        let with_sys = age_at_access_cdf(&l, false);
        assert!(with_sys.inverse(0.5) < median);
    }

    #[test]
    fn weekly_windows_show_burst_mode_and_daily_spike() {
        let l = log();
        let dist = burst_window_distribution(&l, 0.8, None, false);
        assert!(!dist.is_empty());
        let total: f64 = dist.iter().map(|p| p.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1: {total}");
        let frac_1h: f64 = dist
            .iter()
            .filter(|p| p.window_hours <= 2)
            .map(|p| p.fraction)
            .sum();
        assert!(frac_1h > 0.3, "burst files dominate: {frac_1h}");
        // Daily-pattern spike: mass at windows of ~97-121+ hours.
        let frac_daily: f64 = dist
            .iter()
            .filter(|p| p.window_hours >= 90)
            .map(|p| p.fraction)
            .sum();
        assert!(frac_daily > 0.02, "daily re-read files exist: {frac_daily}");
    }

    #[test]
    fn day_restricted_windows_fit_in_24h() {
        let l = log();
        let dist = burst_window_distribution(&l, 0.8, Some(1), false);
        for p in &dist {
            assert!(p.window_hours <= 24);
        }
        // Within one day, bursts dominate even harder (Fig. 5).
        let frac_small: f64 = dist
            .iter()
            .filter(|p| p.window_hours <= 2)
            .map(|p| p.fraction)
            .sum();
        assert!(
            frac_small > 0.5,
            "within-day windows are small: {frac_small}"
        );
    }

    #[test]
    fn weighted_windows_still_sum_to_one() {
        let l = log();
        let dist = burst_window_distribution(&l, 0.8, None, true);
        let total: f64 = dist.iter().map(|p| p.fraction).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
