//! Streaming quantile estimation — the P² algorithm.
//!
//! Jain & Chlamtac, "The P² algorithm for dynamic calculation of quantiles
//! and histograms without storing observations" (CACM 1985). Five markers
//! track the running quantile with O(1) memory and O(1) update, which lets
//! long simulations report latency percentiles (e.g. p95 task slowdown)
//! without buffering hundreds of thousands of samples.
//!
//! For exact quantiles over buffered data use [`crate::stats::quantile`];
//! this type is for the streaming case.

/// P² estimator of a single quantile `q` ∈ (0, 1).
///
/// ```
/// use dare_simcore::quantile::P2Quantile;
/// let mut p95 = P2Quantile::new(0.95);
/// for i in 0..10_000 { p95.push((i % 100) as f64); }
/// assert!((p95.estimate() - 95.0).abs() < 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the quantile curve).
    heights: [f64; 5],
    /// Actual marker positions (1-based sample ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Samples seen so far.
    count: u64,
    /// First five samples buffer (before the markers initialize).
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// Estimator for quantile `q` (e.g. 0.5, 0.95, 0.99).
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            warmup: Vec::with_capacity(5),
        }
    }

    /// The tracked quantile.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feed one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan());
        self.count += 1;
        if self.warmup.len() < 5 {
            self.warmup.push(x);
            if self.warmup.len() == 5 {
                self.warmup
                    .sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                for (i, &v) in self.warmup.iter().enumerate() {
                    self.heights[i] = v;
                }
            }
            return;
        }

        // Find the cell k containing x and update extreme heights.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // first marker with height > x, minus one
            let mut k = 0;
            for i in 1..5 {
                if x < self.heights[i] {
                    k = i - 1;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let candidate = self.parabolic(i, sign);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.positions[i] += sign;
            }
        }
    }

    /// Piecewise-parabolic prediction of marker `i` moved by `sign`.
    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (pm, p, pp) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + sign / (pp - pm)
            * ((p - pm + sign) * (hp - h) / (pp - p) + (pp - p - sign) * (h - hm) / (p - pm))
    }

    /// Linear fallback when the parabola overshoots a neighbour.
    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = (i as f64 + sign) as usize;
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate. For fewer than five samples, the exact quantile of
    /// what has been seen.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.warmup.len() < 5 {
            let mut v = self.warmup.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            return crate::stats::quantile(&v, self.q);
        }
        self.heights[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn median_of_uniform_stream() {
        let mut est = P2Quantile::new(0.5);
        let mut rng = DetRng::new(1);
        for _ in 0..100_000 {
            est.push(rng.uniform());
        }
        let e = est.estimate();
        assert!((e - 0.5).abs() < 0.01, "median estimate {e}");
        assert_eq!(est.count(), 100_000);
    }

    #[test]
    fn p95_of_exponential_stream() {
        use crate::dist::Exponential;
        let mut est = P2Quantile::new(0.95);
        let d = Exponential::new(1.0);
        let mut rng = DetRng::new(2);
        for _ in 0..200_000 {
            est.push(d.sample(&mut rng));
        }
        // True p95 of Exp(1) = -ln(0.05) ≈ 2.996.
        let e = est.estimate();
        assert!((e - 2.996).abs() < 0.15, "p95 estimate {e}");
    }

    #[test]
    fn tiny_streams_fall_back_to_exact() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), 0.0);
        est.push(10.0);
        assert_eq!(est.estimate(), 10.0);
        est.push(20.0);
        est.push(30.0);
        assert!((est.estimate() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn matches_exact_quantile_on_lognormal() {
        use crate::dist::LogNormal;
        let d = LogNormal::from_median(5.0, 1.0);
        let mut rng = DetRng::new(3);
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        for q in [0.1, 0.5, 0.9] {
            let mut est = P2Quantile::new(q);
            for &x in &samples {
                est.push(x);
            }
            let exact = crate::stats::quantile(&samples, q);
            let rel = (est.estimate() - exact).abs() / exact;
            assert!(rel < 0.05, "q={q}: est {} vs exact {exact}", est.estimate());
        }
    }

    #[test]
    fn monotone_input_is_handled() {
        let mut est = P2Quantile::new(0.9);
        for i in 0..10_000 {
            est.push(i as f64);
        }
        let e = est.estimate();
        assert!(
            (e - 9000.0).abs() < 200.0,
            "p90 of 0..10000 ≈ 9000, got {e}"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_quantile() {
        let _ = P2Quantile::new(1.0);
    }
}
