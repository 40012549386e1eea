//! SWIM-style synthesis of the two Facebook workloads (Section V-A).
//!
//! The paper replays 500-job slices of a Facebook 600-machine trace using
//! SWIM (Chen et al., MASCOTS 2011):
//!
//! * **wl1** (trace jobs 0-499): "a long sequence of small jobs" — small
//!   variance in job sizes, which favours FIFO;
//! * **wl2** (trace jobs 4800-5299): "a pattern of small jobs after large
//!   jobs" — periodic whale jobs whose head-of-line blocking favours the
//!   Fair scheduler.
//!
//! The synthesizer reproduces the three properties the evaluation actually
//! exercises: the job-size mix, Poisson-ish arrivals, and file popularity
//! following the Fig. 6 CDF. Jobs read whole files (one map per block), so
//! repeated accesses to a popular file are exactly the concurrent-hotspot
//! pattern DARE exploits.

use crate::popularity::FilePopularity;
use crate::spec::{FileSpec, JobSpec, Workload};
use dare_simcore::dist::{Exponential, LogNormal};
use dare_simcore::{DetRng, SimDuration, SimTime};

/// Tunables for the SWIM synthesizer.
#[derive(Debug, Clone)]
pub struct SwimParams {
    /// Jobs to generate (paper: 500).
    pub jobs: u32,
    /// Distinct data files (Fig. 6: ~128).
    pub files: usize,
    /// Zipf exponent of the file-popularity law.
    pub zipf_s: f64,
    /// Mean job inter-arrival time, seconds (exponential).
    pub mean_interarrival_secs: f64,
    /// Block size used to express file sizes in blocks.
    pub block_size: u64,
    /// Median small-file size in blocks (lognormal).
    pub small_blocks_median: f64,
    /// Log-space spread of small-file sizes.
    pub small_blocks_sigma: f64,
    /// Cap on small-file size, blocks.
    pub small_blocks_max: u64,
    /// Every `big_every`-th job reads a big file (0 disables big jobs).
    pub big_every: u32,
    /// Big-file size range in blocks (uniform).
    pub big_blocks: (u64, u64),
    /// Fraction of the file population designated big (wl2 only).
    pub big_file_frac: f64,
    /// Median per-task map compute time, seconds (lognormal per job).
    pub map_compute_median_secs: f64,
    /// Log-space spread of map compute time.
    pub map_compute_sigma: f64,
    /// Median output/input ratio (lognormal per job).
    pub output_ratio_median: f64,
    /// Temporal access correlation (Section III: "different types of
    /// analysis on a common time-varying data set", with most of a file's
    /// accesses inside a one-hour window): the trace proceeds in *phases*
    /// of `phase_jobs` jobs; each phase draws `focal_per_phase` focal files
    /// from the popularity law, and every non-whale job reads a focal file
    /// with probability `focal_prob` (else a fresh popularity draw).
    pub phase_jobs: u32,
    /// Concurrently hot files per phase.
    pub focal_per_phase: usize,
    /// Probability a job reads one of the phase's focal files.
    pub focal_prob: f64,
}

impl SwimParams {
    /// Parameters of **wl1**: 500 small jobs, no whales.
    pub fn wl1() -> Self {
        SwimParams {
            jobs: 500,
            files: 128,
            zipf_s: 1.1,
            mean_interarrival_secs: 0.7,
            block_size: 128 * dare_net_mb(),
            small_blocks_median: 1.5,
            small_blocks_sigma: 0.8,
            small_blocks_max: 6,
            big_every: 0,
            big_blocks: (0, 0),
            big_file_frac: 0.0,
            map_compute_median_secs: 3.0,
            map_compute_sigma: 0.5,
            output_ratio_median: 0.3,
            phase_jobs: 170,
            focal_per_phase: 2,
            focal_prob: 0.8,
        }
    }

    /// Parameters of **wl2**: small jobs punctuated by whales every 25 jobs.
    pub fn wl2() -> Self {
        SwimParams {
            big_every: 25,
            big_blocks: (30, 60),
            big_file_frac: 0.08,
            ..Self::wl1()
        }
    }
}

/// `dare_net::MB` without taking a crate dependency for one constant.
const fn dare_net_mb() -> u64 {
    1 << 20
}

/// Synthesize a workload from `params` with deterministic `seed`.
pub fn synthesize(name: &str, params: &SwimParams, seed: u64) -> Workload {
    assert!(params.jobs > 0 && params.files > 0);
    let root = DetRng::new(seed);
    let mut size_rng = root.substream("swim-file-sizes");
    let mut pick_rng = root.substream("swim-file-pick");
    let mut arr_rng = root.substream("swim-arrivals");
    let mut job_rng = root.substream("swim-job-shape");

    // Which popularity ranks are big files (wl2): spread through the middle
    // of the popularity order so whales are popular enough to recur but do
    // not dominate the access stream.
    let num_big = ((params.files as f64) * params.big_file_frac).round() as usize;
    let big_ranks: Vec<usize> = if num_big == 0 {
        Vec::new()
    } else {
        // ranks 4, 4+stride, ... (1-based ranks)
        let stride = params.files.checked_div(num_big).unwrap_or(0).max(1);
        (0..num_big)
            .map(|i| 4 + i * stride)
            .map(|r| r.min(params.files))
            .collect()
    };

    let small_size = LogNormal::from_median(params.small_blocks_median, params.small_blocks_sigma);
    let files: Vec<FileSpec> = (1..=params.files)
        .map(|rank| {
            let blocks = if big_ranks.contains(&rank) {
                let (lo, hi) = params.big_blocks;
                lo + (size_rng.uniform() * (hi - lo + 1) as f64) as u64
            } else {
                (small_size.sample(&mut size_rng).round() as u64).clamp(1, params.small_blocks_max)
            };
            FileSpec {
                name: format!("data/f{rank:04}"),
                size_bytes: blocks * params.block_size,
            }
        })
        .collect();

    let pop = FilePopularity::new(params.files, params.zipf_s);
    let interarrival = Exponential::from_mean(params.mean_interarrival_secs);
    let compute = LogNormal::from_median(params.map_compute_median_secs, params.map_compute_sigma);
    let out_ratio = LogNormal::from_median(params.output_ratio_median, 0.8);

    // A fresh popularity draw that avoids the whale files.
    let fresh_small = |rng: &mut DetRng| {
        let mut r = pop.sample_rank(rng);
        let mut guard = 0;
        while big_ranks.contains(&r) && guard < 64 {
            r = pop.sample_rank(rng);
            guard += 1;
        }
        r
    };

    let mut jobs = Vec::with_capacity(params.jobs as usize);
    let mut t = 0.0_f64;
    let mut focal: Vec<usize> = Vec::new();
    for id in 0..params.jobs {
        t += interarrival.sample(&mut arr_rng);
        // Phase boundary: rotate the focal (currently hot) files.
        if id % params.phase_jobs.max(1) == 0 {
            focal.clear();
            for _ in 0..params.focal_per_phase {
                focal.push(fresh_small(&mut pick_rng));
            }
        }
        let is_big = params.big_every > 0
            && !big_ranks.is_empty()
            && id % params.big_every == params.big_every - 1;
        let file_rank = if is_big {
            big_ranks[pick_rng.index(big_ranks.len())]
        } else if !focal.is_empty() && pick_rng.coin(params.focal_prob) {
            focal[pick_rng.index(focal.len())]
        } else {
            fresh_small(&mut pick_rng)
        };
        let file = file_rank - 1; // rank is 1-based, index 0-based
        let input_bytes = files[file].size_bytes;
        let maps = input_bytes.div_ceil(params.block_size);
        let map_compute =
            SimDuration::from_secs_f64(compute.sample(&mut job_rng).clamp(1.0, 300.0));
        let ratio = out_ratio.sample(&mut job_rng).min(2.0);
        let output_bytes = ((input_bytes as f64) * ratio) as u64;
        let reduces = (maps.div_ceil(8) as u32).clamp(1, 10);
        jobs.push(JobSpec {
            id,
            arrival: SimTime::from_secs_f64(t),
            file,
            map_compute,
            reduces,
            output_bytes,
        });
    }

    let w = Workload {
        name: name.to_string(),
        files,
        jobs,
    };
    w.validate().expect("synthesized workload is valid");
    w
}

/// Scale a parameter set to a different cluster size, the way SWIM scales
/// a trace before replay: job arrival rate grows with the slot count so
/// per-slot load stays constant (the paper replays the same 500 jobs on a
/// 19-worker and a 99-worker cluster; SWIM's methodology rescales
/// inter-arrivals by the cluster-size ratio).
pub fn scale_to_cluster(mut params: SwimParams, base_nodes: u32, target_nodes: u32) -> SwimParams {
    assert!(base_nodes > 0 && target_nodes > 0);
    params.mean_interarrival_secs *= base_nodes as f64 / target_nodes as f64;
    params
}

/// The paper's **wl1** (FIFO-friendly small-job stream).
pub fn wl1(seed: u64) -> Workload {
    synthesize("wl1", &SwimParams::wl1(), seed)
}

/// The paper's **wl2** (Fair-friendly small-after-large pattern).
pub fn wl2(seed: u64) -> Workload {
    synthesize("wl2", &SwimParams::wl2(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: u64 = 128 * (1 << 20);

    #[test]
    fn wl1_is_500_small_jobs() {
        let w = wl1(1);
        assert_eq!(w.num_jobs(), 500);
        assert_eq!(w.files.len(), 128);
        let max_maps = w
            .jobs
            .iter()
            .map(|j| w.maps_of(j, BS))
            .max()
            .expect("jobs exist");
        assert!(max_maps <= 6, "wl1 has no whales (max {max_maps})");
        assert!(w.validate().is_ok());
    }

    #[test]
    fn wl2_has_periodic_whales() {
        let w = wl2(1);
        assert_eq!(w.num_jobs(), 500);
        let whales: Vec<u64> = w
            .jobs
            .iter()
            .map(|j| w.maps_of(j, BS))
            .filter(|&m| m >= 30)
            .collect();
        assert_eq!(whales.len(), 20, "every 25th of 500 jobs is big");
        // Small jobs stay small.
        let smalls = w
            .jobs
            .iter()
            .map(|j| w.maps_of(j, BS))
            .filter(|&m| m <= 6)
            .count();
        assert_eq!(smalls, 480);
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let w = wl1(7);
        let mut counts = vec![0u32; w.files.len()];
        for j in &w.jobs {
            counts[j.file] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = sorted.iter().take(10).sum();
        assert!(
            top10 as f64 / 500.0 > 0.30,
            "top-10 files draw a big share: {top10}"
        );
        // and the tail exists
        assert!(sorted.iter().filter(|&&c| c == 0).count() > 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = wl2(99);
        let b = wl2(99);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.file, y.file);
            assert_eq!(x.map_compute, y.map_compute);
        }
        let c = wl2(100);
        assert!(
            a.jobs.iter().zip(&c.jobs).any(|(x, y)| x.file != y.file),
            "different seeds differ"
        );
    }

    #[test]
    fn arrivals_are_increasing_and_reasonable() {
        let w = wl1(3);
        let last = w.jobs.last().expect("jobs").arrival;
        let mean_gap = last.as_secs_f64() / 500.0;
        assert!(
            (0.4..1.4).contains(&mean_gap),
            "mean inter-arrival {mean_gap}s"
        );
    }

    #[test]
    fn scaling_preserves_per_slot_load() {
        let base = SwimParams::wl1();
        let scaled = scale_to_cluster(base.clone(), 19, 99);
        let ratio = base.mean_interarrival_secs / scaled.mean_interarrival_secs;
        assert!((ratio - 99.0 / 19.0).abs() < 1e-9);
        // Other knobs untouched.
        assert_eq!(scaled.jobs, base.jobs);
        assert_eq!(scaled.files, base.files);
    }

    #[test]
    fn compute_times_within_clamp() {
        let w = wl2(4);
        for j in &w.jobs {
            let s = j.map_compute.as_secs_f64();
            assert!((1.0..=300.0).contains(&s));
            assert!(j.reduces >= 1 && j.reduces <= 10);
        }
    }
}
