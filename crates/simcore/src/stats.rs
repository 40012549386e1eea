//! Descriptive statistics for the evaluation.
//!
//! Everything the paper's tables and figures report is computed here:
//! min/mean/max/std (Tables I-II), percentiles and CDFs (Figs. 3-6),
//! geometric mean (GMTT, Eq. 1), and the coefficient of variation used to
//! score replica-placement uniformity (Fig. 11).

use std::collections::BTreeMap;

/// Streaming mean/variance/min/max using Welford's algorithm.
///
/// Numerically stable (no sum-of-squares cancellation) and O(1) per sample,
/// which matters when a 500-job simulation feeds hundreds of thousands of
/// task durations through it.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator into this one (parallel-sweep reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (NaN-free input assumed); 0 when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Coefficient of variation `σ / |μ|` (Fig. 11's uniformity measure).
    /// Returns 0 for an empty accumulator and infinity for a zero mean with
    /// nonzero spread.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let m = self.mean.abs();
        if m == 0.0 {
            if self.std() == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.std() / m
        }
    }
}

/// Replicated-run summary: sample mean, sample standard deviation, and
/// the 95 % confidence half-width of the mean (normal approximation,
/// `1.96 s/√n`) over N independent seeds of one experiment cell.
///
/// `std` and `ci95` are **0.0 when `n < 2`** — a single replicate has no
/// spread estimate. They are never NaN; presentation layers (the farm's
/// CSV merger) render them as empty fields instead of fabricating a zero
/// spread. Normal approximation rather than Student-t: at the ~5-10 seed
/// replications the experiment farm runs, the difference is well inside
/// the simulator-vs-paper tolerance bands, and it keeps the half-width a
/// closed form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of replicates.
    pub n: u64,
    /// Sample mean (0 when `n == 0`).
    pub mean: f64,
    /// Sample standard deviation, `n-1` denominator (0 when `n < 2`).
    pub std: f64,
    /// 95 % confidence half-width `1.96 · std / √n` (0 when `n < 2`).
    pub ci95: f64,
}

impl Summary {
    /// True when enough replicates exist for `std`/`ci95` to be defined.
    pub fn has_spread(&self) -> bool {
        self.n >= 2
    }
}

/// Summarize replicated measurements into mean / sample std / 95 % CI.
///
/// Accepts any sample count without panicking: empty input yields an
/// all-zero summary, a single sample yields its value as the mean with
/// zero (undefined) spread.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut st = OnlineStats::new();
    for &x in xs {
        st.push(x);
    }
    summarize_online(&st)
}

/// [`summarize`] over an already-filled [`OnlineStats`] accumulator
/// (parallel-sweep reductions merge accumulators, then summarize once).
pub fn summarize_online(st: &OnlineStats) -> Summary {
    let n = st.count();
    let (std, ci95) = if n >= 2 {
        // Sample variance from the population variance OnlineStats keeps.
        let s = (st.variance() * n as f64 / (n as f64 - 1.0)).sqrt();
        (s, 1.96 * s / (n as f64).sqrt())
    } else {
        (0.0, 0.0)
    };
    Summary {
        n,
        mean: st.mean(),
        std,
        ci95,
    }
}

/// Geometric mean of strictly positive values — the paper's GMTT (Eq. 1).
///
/// Computed in log space to avoid overflow on long products. Non-positive
/// inputs are clamped to `f64::MIN_POSITIVE` (a zero-duration job would
/// otherwise annihilate the metric; the paper's jobs always take > 0 s).
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| x.max(f64::MIN_POSITIVE).ln())
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Coefficient of variation of a slice (convenience over [`OnlineStats`]).
pub fn coefficient_of_variation(xs: &[f64]) -> f64 {
    let mut st = OnlineStats::new();
    for &x in xs {
        st.push(x);
    }
    st.coefficient_of_variation()
}

/// `q`-quantile (0 ≤ q ≤ 1) of unsorted data, by linear interpolation
/// between closest ranks (the "R-7" definition used by numpy's default).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    assert!(!xs.is_empty(), "quantile of empty data");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// An empirical cumulative distribution function over `f64` samples.
///
/// Used to emit the CDF figures (Figs. 3 and 6) and to answer inverse
/// queries like "at what age have 50 % of accesses happened?" (the paper's
/// 9h45m annotation in Fig. 3).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs rejected by debug assertion).
    pub fn new(mut samples: Vec<f64>) -> Self {
        debug_assert!(samples.iter().all(|x| !x.is_nan()));
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ECDF input"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when built from no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let cnt = self.sorted.partition_point(|&s| s <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    /// Smallest sample value `v` with `fraction_leq(v) ≥ q` (inverse CDF).
    pub fn inverse(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty());
        assert!((0.0..=1.0).contains(&q));
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Evaluate the CDF at each of `points`, yielding `(x, F(x))` pairs —
    /// ready to print as a figure series.
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.fraction_leq(x))).collect()
    }
}

/// Count / sum / min / max plus streaming p50, p95 and p99 for one class
/// of samples (latencies, utilizations, ...), backed by the
/// [`P2Quantile`](crate::quantile::P2Quantile) estimator so a multi-hour
/// simulation can report percentiles without buffering every sample.
///
/// Shared by the trace summary's latency percentiles and the telemetry
/// sampler's windowed columns. All values are in the caller's unit
/// (the trace uses seconds).
#[derive(Debug, Clone)]
pub struct LatencyStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    p50: crate::quantile::P2Quantile,
    p95: crate::quantile::P2Quantile,
    p99: crate::quantile::P2Quantile,
}

impl Default for LatencyStat {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStat {
    /// Empty accumulator.
    pub fn new() -> Self {
        LatencyStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            p50: crate::quantile::P2Quantile::new(0.5),
            p95: crate::quantile::P2Quantile::new(0.95),
            p99: crate::quantile::P2Quantile::new(0.99),
        }
    }

    /// Record one sample in seconds (or any other unit).
    pub fn push(&mut self, secs: f64) {
        self.count += 1;
        self.sum += secs;
        self.min = self.min.min(secs);
        self.max = self.max.max(secs);
        self.p50.push(secs);
        self.p95.push(secs);
        self.p99.push(secs);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Streaming median estimate.
    pub fn p50(&self) -> f64 {
        self.p50.estimate()
    }

    /// Streaming 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.p95.estimate()
    }

    /// Streaming 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.p99.estimate()
    }

    /// One-line human summary, e.g. for the CLI footer.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.3}s p50={:.3}s p95={:.3}s p99={:.3}s max={:.3}s",
            self.count,
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.max()
        )
    }
}

/// Rank-frequency table: counts per key, sorted descending — the shape of
/// Fig. 2 (file popularity vs rank).
#[derive(Debug, Clone, Default)]
pub struct RankFrequency {
    counts: BTreeMap<u64, f64>,
}

impl RankFrequency {
    /// Fresh empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `weight` occurrences of `key`.
    pub fn add(&mut self, key: u64, weight: f64) {
        *self.counts.entry(key).or_insert(0.0) += weight;
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// `(rank, weight)` series sorted by descending weight; rank is 1-based.
    /// Ties broken by key for determinism.
    pub fn ranked(&self) -> Vec<(usize, f64)> {
        let mut v: Vec<(&u64, &f64)> = self.counts.iter().collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(a.1)
                .expect("NaN weight")
                .then_with(|| a.0.cmp(b.0))
        });
        v.into_iter()
            .enumerate()
            .map(|(i, (_, &w))| (i + 1, w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.coefficient_of_variation() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn online_stats_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in data.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));
        let mut empty = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(1.0);
        b.push(3.0);
        empty.merge(&b);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.mean(), 2.0);
    }

    #[test]
    fn summary_ci_half_width_matches_hand_computation() {
        // [2,4,4,4,5,5,7,9]: mean 5, sample variance 32/7, so
        // s = sqrt(32/7) = 2.13808993529939..., ci95 = 1.96·s/√8.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = summarize(&xs);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 1.96 * (32.0f64 / 7.0).sqrt() / 8.0f64.sqrt()).abs() < 1e-12);
        assert!(s.has_spread());

        // Two-sample case, fully by hand: [1, 3] → mean 2, s = √2,
        // ci95 = 1.96·√2/√2 = 1.96.
        let s = summarize(&[1.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 2.0f64.sqrt()).abs() < 1e-12);
        assert!((s.ci95 - 1.96).abs() < 1e-12);
    }

    #[test]
    fn summary_n1_and_empty_are_nan_free() {
        // n = 1: spread is undefined — must come back 0.0 (not NaN, no
        // panic) and report has_spread() == false so emitters can render
        // empty fields.
        let s = summarize(&[42.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert!(!s.has_spread());
        assert!(!s.mean.is_nan() && !s.std.is_nan() && !s.ci95.is_nan());

        let s = summarize(&[]);
        assert_eq!(s.n, 0);
        assert_eq!((s.mean, s.std, s.ci95), (0.0, 0.0, 0.0));
        assert!(!s.has_spread());
    }

    #[test]
    fn summarize_online_agrees_with_slice_form() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.77).cos() * 5.0).collect();
        let mut st = OnlineStats::new();
        for &x in &xs {
            st.push(x);
        }
        let a = summarize(&xs);
        let b = summarize_online(&st);
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.std - b.std).abs() < 1e-12);
        assert!((a.ci95 - b.ci95).abs() < 1e-12);
        assert_eq!(a.n, b.n);
    }

    #[test]
    fn geometric_mean_matches_definition() {
        assert!((geometric_mean(&[1.0, 8.0]) - 8.0f64.sqrt()).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        // GM is dominated less by outliers than the arithmetic mean —
        // the reason the paper uses it for turnaround times.
        let gm = geometric_mean(&[1.0, 1.0, 1.0, 1000.0]);
        assert!(gm < 10.0);
    }

    #[test]
    fn geometric_mean_no_overflow_on_many_large_values() {
        let xs = vec![1e300; 10_000];
        let gm = geometric_mean(&xs);
        assert!((gm / 1e300 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ecdf_fraction_and_inverse() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(e.fraction_leq(0.5), 0.0);
        assert_eq!(e.fraction_leq(3.0), 0.6);
        assert_eq!(e.fraction_leq(100.0), 1.0);
        assert_eq!(e.inverse(0.5), 3.0);
        assert_eq!(e.inverse(1.0), 5.0);
        assert_eq!(e.inverse(0.0), 1.0);
        let s = e.series(&[0.0, 2.5, 5.0]);
        assert_eq!(s, vec![(0.0, 0.0), (2.5, 0.4), (5.0, 1.0)]);
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.fraction_leq(1.0), 0.0);
    }

    #[test]
    fn latency_stat_tracks_extremes_and_mean() {
        let mut s = LatencyStat::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!(s.p50() >= 1.0 && s.p50() <= 4.0);
    }

    #[test]
    fn empty_latency_stat_is_zeroed() {
        let s = LatencyStat::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.summary().starts_with("n=0"));
    }

    #[test]
    fn rank_frequency_orders_descending() {
        let mut rf = RankFrequency::new();
        rf.add(1, 5.0);
        rf.add(2, 50.0);
        rf.add(3, 1.0);
        rf.add(2, 0.5);
        let ranked = rf.ranked();
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0], (1, 50.5));
        assert_eq!(ranked[1], (2, 5.0));
        assert_eq!(ranked[2], (3, 1.0));
        assert_eq!(rf.distinct(), 3);
    }
}
