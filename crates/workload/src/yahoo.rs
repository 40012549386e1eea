//! Synthetic Yahoo!-like HDFS audit log (substitute for the proprietary
//! `ydata-hdfs-audit-logs-v1_0` data set the paper analyzes in Section III).
//!
//! The generative model bakes in the four published properties so the
//! Section III analysis code can be demonstrated end-to-end:
//!
//! 1. **Heavy-tailed popularity** (Fig. 2): per-file access counts follow a
//!    Zipf law over the population.
//! 2. **Young-data bias** (Fig. 3): the age of a file at access time has
//!    median ≈ 9h45m and ~80 % of accesses within the first day.
//! 3. **Hour-scale bursts** (Figs. 4-5): most files receive 80 % of their
//!    accesses within a one-hour window of some day.
//! 4. **Daily periodicity** (Fig. 4's spike at a 121-hour window): a
//!    minority of files is re-read every day of the week, so the smallest
//!    window covering 80 % of their accesses spans ~6 days.
//!
//! System files (job.jar / job.xml / job.split) are generated too — they are
//! created, hammered within minutes, and deleted per job — because the
//! analyses must *exclude* them exactly as the paper does.

use dare_simcore::dist::LogNormal;
use dare_simcore::{DetRng, SimTime};

/// Per-file temporal access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// All accesses inside a ±30 min burst at one moment of the file's life.
    Burst,
    /// Equal daily re-reads at a fixed hour for the rest of the week.
    Daily,
    /// Ages drawn i.i.d. from the young-biased age law.
    Spread,
}

/// A file in the synthetic log.
#[derive(Debug, Clone)]
pub struct LogFile {
    /// Dense id.
    pub id: u32,
    /// Creation time.
    pub created: SimTime,
    /// Number of 128 MB blocks (Fig. 2's weighted variant).
    pub num_blocks: u32,
    /// True for job.jar/job.xml/job.split-style framework files.
    pub is_system: bool,
    /// The pattern this file's accesses follow.
    pub pattern: AccessPattern,
}

/// One read access in the audit log.
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent {
    /// When the access happened.
    pub time: SimTime,
    /// Which file was read.
    pub file: u32,
}

/// A synthesized week of audit-log activity.
#[derive(Debug, Clone)]
pub struct AccessLog {
    /// File table.
    pub files: Vec<LogFile>,
    /// Accesses sorted by time.
    pub events: Vec<AccessEvent>,
    /// Length of the observation window in hours.
    pub window_hours: u64,
}

/// Tunables of the generator.
#[derive(Debug, Clone)]
pub struct YahooParams {
    /// Number of data (non-system) files.
    pub files: usize,
    /// Zipf exponent of per-file access counts.
    pub zipf_s: f64,
    /// Total accesses to data files over the week.
    pub total_accesses: u64,
    /// Observation window (paper: one week = 168 h).
    pub window_hours: u64,
    /// Number of MapReduce jobs generating system files.
    pub system_jobs: u32,
    /// Accesses each system file receives (task-start reads).
    pub system_accesses_each: u32,
    /// Mixture weights for (burst, daily, spread) patterns.
    pub pattern_weights: (f64, f64, f64),
}

impl Default for YahooParams {
    fn default() -> Self {
        YahooParams {
            files: 1000,
            zipf_s: 1.1,
            total_accesses: 150_000,
            window_hours: 168,
            system_jobs: 300,
            system_accesses_each: 40,
            pattern_weights: (0.60, 0.20, 0.20),
        }
    }
}

/// The age-at-access law of Fig. 3: lognormal with median 9.75 h and
/// σ chosen so ~80 % of mass falls below 24 h.
pub fn age_law() -> LogNormal {
    // z_{0.8} = 0.8416; sigma = ln(24/9.75) / z = 1.071
    LogNormal::from_median(9.75, 1.071)
}

/// Generate a week of audit-log traffic.
pub fn generate(params: &YahooParams, seed: u64) -> AccessLog {
    let root = DetRng::new(seed);
    let mut meta_rng = root.substream("yahoo-meta");
    let mut time_rng = root.substream("yahoo-times");

    let week = params.window_hours as f64;
    let zipf = dare_simcore::dist::Zipf::new(params.files, params.zipf_s);
    let blocks_dist = LogNormal::from_median(4.0, 1.0);
    let ages = age_law();

    let mut files = Vec::with_capacity(params.files);
    let mut events: Vec<AccessEvent> = Vec::new();

    // Expected accesses per rank from the Zipf pmf.
    for rank in 1..=params.files {
        let id = (rank - 1) as u32;
        // Most data files exist from early in the window; some are created
        // mid-week (their accesses are then age-limited).
        let created_h = if meta_rng.coin(0.6) {
            meta_rng.uniform_range(0.0, 8.0)
        } else {
            meta_rng.uniform_range(0.0, week * 0.6)
        };
        let created = SimTime::from_secs_f64(created_h * 3600.0);
        let num_blocks = (blocks_dist.sample(&mut meta_rng).round() as u32).clamp(1, 2000);
        let (wb, wd, _ws) = params.pattern_weights;
        let u = meta_rng.uniform();
        // The hottest files are the fresh common data set everyone scans
        // (Section III: "a common time-varying data set") — always
        // young-access patterns. Daily re-reads live in the mid-tail.
        let pattern = if rank <= params.files / 16 {
            if u < 0.75 {
                AccessPattern::Burst
            } else {
                AccessPattern::Spread
            }
        } else if u < wb {
            AccessPattern::Burst
        } else if u < wb + wd {
            AccessPattern::Daily
        } else {
            AccessPattern::Spread
        };
        let count = (zipf.pmf(rank) * params.total_accesses as f64).round() as u64;
        let count = count.max(1);

        emit_accesses(
            &mut events,
            id,
            created_h,
            week,
            pattern,
            count,
            &ages,
            &mut time_rng,
        );

        files.push(LogFile {
            id,
            created,
            num_blocks,
            is_system: false,
            pattern,
        });
    }

    // System files: one jar+xml+split trio per job, hammered within minutes
    // of creation.
    for j in 0..params.system_jobs {
        let job_start_h = time_rng.uniform_range(0.0, week - 0.5);
        for part in 0..3 {
            let id = files.len() as u32;
            files.push(LogFile {
                id,
                created: SimTime::from_secs_f64(job_start_h * 3600.0),
                num_blocks: 1,
                is_system: true,
                pattern: AccessPattern::Burst,
            });
            let _ = (j, part);
            for _ in 0..params.system_accesses_each {
                let dt_min = time_rng.uniform_range(0.0, 10.0);
                events.push(AccessEvent {
                    time: SimTime::from_secs_f64((job_start_h * 60.0 + dt_min) * 60.0),
                    file: id,
                });
            }
        }
    }

    events.sort_by_key(|e| (e.time, e.file));
    AccessLog {
        files,
        events,
        window_hours: params.window_hours,
    }
}

/// Emit `count` accesses for one data file according to its pattern.
#[allow(clippy::too_many_arguments)]
fn emit_accesses(
    events: &mut Vec<AccessEvent>,
    id: u32,
    created_h: f64,
    week_h: f64,
    pattern: AccessPattern,
    count: u64,
    ages: &LogNormal,
    rng: &mut DetRng,
) {
    let push = |events: &mut Vec<AccessEvent>, hour: f64| {
        let h = hour.clamp(created_h, week_h - 1e-6);
        events.push(AccessEvent {
            time: SimTime::from_secs_f64(h * 3600.0),
            file: id,
        });
    };
    match pattern {
        AccessPattern::Burst => {
            // Burst center at a young age; the whole burst spans ±30 min.
            let center = created_h + ages.sample(rng).min(week_h - created_h - 0.5);
            for _ in 0..count {
                push(events, center + rng.uniform_range(-0.5, 0.5));
            }
        }
        AccessPattern::Daily => {
            // Fixed hour-of-day; equal shares across the remaining days.
            let base_hour = rng.uniform_range(0.0, 24.0);
            let first_day = (created_h / 24.0).ceil() as u64;
            let days: Vec<u64> = (first_day..(week_h / 24.0) as u64).collect();
            if days.is_empty() {
                // Created too late for daily re-reads: degenerate to burst.
                let center = created_h + 0.5;
                for _ in 0..count {
                    push(events, center + rng.uniform_range(-0.25, 0.25));
                }
                return;
            }
            for i in 0..count {
                let day = days[(i as usize) % days.len()];
                let jitter = rng.uniform_range(-0.3, 0.3);
                push(events, day as f64 * 24.0 + base_hour + jitter);
            }
        }
        AccessPattern::Spread => {
            for _ in 0..count {
                push(events, created_h + ages.sample(rng));
            }
        }
    }
}

impl AccessLog {
    /// Accesses to data files only.
    pub fn data_events(&self) -> impl Iterator<Item = &AccessEvent> {
        self.events
            .iter()
            .filter(|e| !self.files[e.file as usize].is_system)
    }

    /// Number of data (non-system) files.
    pub fn num_data_files(&self) -> usize {
        self.files.iter().filter(|f| !f.is_system).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_simcore::SimDuration;

    fn small_log() -> AccessLog {
        generate(
            &YahooParams {
                files: 200,
                total_accesses: 20_000,
                system_jobs: 50,
                ..YahooParams::default()
            },
            42,
        )
    }

    #[test]
    fn log_is_sorted_and_sized() {
        let log = small_log();
        assert_eq!(log.num_data_files(), 200);
        assert_eq!(log.files.len(), 200 + 50 * 3);
        assert!(log.events.len() > 20_000);
        for w in log.events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for e in &log.events {
            assert!(e.time <= SimTime::from_secs(168 * 3600));
            let f = &log.files[e.file as usize];
            assert!(e.time >= f.created, "no access precedes creation");
        }
    }

    #[test]
    fn popularity_is_zipf_like() {
        let log = small_log();
        let mut counts = vec![0u64; log.files.len()];
        for e in log.data_events() {
            counts[e.file as usize] += 1;
        }
        let mut data_counts: Vec<u64> = counts
            .iter()
            .enumerate()
            .filter(|(i, _)| !log.files[*i].is_system)
            .map(|(_, &c)| c)
            .collect();
        data_counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = data_counts.iter().sum();
        let top10: u64 = data_counts.iter().take(10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.35,
            "top-10 share {}",
            top10 as f64 / total as f64
        );
        assert!(data_counts[0] > 50 * data_counts[150].max(1));
    }

    #[test]
    fn ages_are_young_biased() {
        let log = small_log();
        let mut ages_h: Vec<f64> = Vec::new();
        for e in log.data_events() {
            let f = &log.files[e.file as usize];
            ages_h.push(e.time.saturating_since(f.created).as_hours_f64());
        }
        ages_h.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = ages_h[ages_h.len() / 2];
        let frac_day = ages_h.iter().filter(|&&a| a <= 24.0).count() as f64 / ages_h.len() as f64;
        assert!((4.0..18.0).contains(&median), "median age {median}h");
        assert!(frac_day > 0.55, "fraction within a day {frac_day}");
    }

    #[test]
    fn system_files_are_hammered_young() {
        let log = small_log();
        for e in &log.events {
            let f = &log.files[e.file as usize];
            if f.is_system {
                let age = e.time.saturating_since(f.created);
                assert!(age <= SimDuration::from_secs(11 * 60));
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&YahooParams::default(), 7);
        let b = generate(&YahooParams::default(), 7);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events[100].time, b.events[100].time);
    }

    #[test]
    fn patterns_all_present() {
        let log = small_log();
        let mut has = [false; 3];
        for f in &log.files {
            if !f.is_system {
                match f.pattern {
                    AccessPattern::Burst => has[0] = true,
                    AccessPattern::Daily => has[1] = true,
                    AccessPattern::Spread => has[2] = true,
                }
            }
        }
        assert_eq!(has, [true; 3]);
    }
}
