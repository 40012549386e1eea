//! The experiment file-access distribution (Fig. 6).
//!
//! Fig. 6 plots the CDF of the access probability over file ranks used in
//! the Section V experiments: heavy-tailed over ~128 files, with the top
//! 20 files drawing roughly half the accesses. A Zipf law over 128 ranks
//! with exponent ≈ 0.9 reproduces that curve; the exponent and population
//! are configurable so sensitivity studies can stress flatter or steeper
//! skews.

use dare_simcore::dist::Zipf;
use dare_simcore::DetRng;

/// Access-popularity model over a ranked file population.
#[derive(Debug, Clone)]
pub struct FilePopularity {
    zipf: Zipf,
}

impl FilePopularity {
    /// Population of `files` ranks with Zipf exponent `s`.
    pub fn new(files: usize, s: f64) -> Self {
        FilePopularity {
            zipf: Zipf::new(files, s),
        }
    }

    /// The distribution used in the paper's experiments (Fig. 6):
    /// 128 files, exponent 0.9.
    pub fn experiment() -> Self {
        Self::new(128, 0.9)
    }

    /// Number of files in the population.
    pub fn files(&self) -> usize {
        self.zipf.n()
    }

    /// Probability that an access hits the rank-`k` file (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        self.zipf.pmf(k)
    }

    /// Cumulative probability over ranks `1..=k` — the Fig. 6 curve.
    pub fn cdf(&self, k: usize) -> f64 {
        self.zipf.cdf(k)
    }

    /// Draw the rank of the file the next access hits (1-based).
    pub fn sample_rank(&self, rng: &mut DetRng) -> usize {
        self.zipf.sample(rng)
    }

    /// The full `(rank, cdf)` series, ready for the fig6 harness.
    pub fn cdf_series(&self) -> Vec<(usize, f64)> {
        (1..=self.files()).map(|k| (k, self.cdf(k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_curve_matches_fig6_shape() {
        let p = FilePopularity::experiment();
        assert_eq!(p.files(), 128);
        // Fig. 6 anchor points (eyeballed from the plot, generous bands):
        // top-20 files ≈ half the mass, top-80 ≈ 85-95 %.
        let c20 = p.cdf(20);
        let c80 = p.cdf(80);
        assert!((0.40..=0.65).contains(&c20), "cdf(20) = {c20}");
        assert!((0.80..=0.95).contains(&c80), "cdf(80) = {c80}");
        assert!((p.cdf(128) - 1.0).abs() < 1e-12);
        // Heavy tail: the most popular file gets many times the median
        // file's mass.
        assert!(p.pmf(1) > 10.0 * p.pmf(64));
    }

    #[test]
    fn sampling_matches_cdf() {
        let p = FilePopularity::experiment();
        let mut rng = DetRng::new(8);
        let n = 100_000;
        let hits_top20 = (0..n).filter(|_| p.sample_rank(&mut rng) <= 20).count();
        let frac = hits_top20 as f64 / n as f64;
        assert!((frac - p.cdf(20)).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn cdf_series_is_monotone() {
        let p = FilePopularity::new(50, 1.2);
        let s = p.cdf_series();
        assert_eq!(s.len(), 50);
        for w in s.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }
}
