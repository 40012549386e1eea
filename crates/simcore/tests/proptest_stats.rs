//! Property-based tests of the statistics and event-queue kernels.

use dare_simcore::check::{run_cases, Gen};
use dare_simcore::dist::Zipf;
use dare_simcore::quantile::P2Quantile;
use dare_simcore::stats::{geometric_mean, quantile, Ecdf, OnlineStats};
use dare_simcore::{EventQueue, SimTime};

fn finite_vec(g: &mut Gen) -> Vec<f64> {
    g.vec(1..200, |g| g.f64_in(-1e6..1e6))
}

fn positive_vec(g: &mut Gen) -> Vec<f64> {
    g.vec(1..200, |g| g.f64_in(1e-3..1e6))
}

#[test]
fn online_stats_merge_equals_sequential() {
    run_cases(256, 0x57A7_0001, |g| {
        let xs = finite_vec(g);
        let split = g.usize_in(0..200).min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        assert!((a.variance() - whole.variance()).abs() <= 1e-5 * (1.0 + whole.variance().abs()));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    });
}

#[test]
fn stats_bounds_hold() {
    run_cases(256, 0x57A7_0002, |g| {
        let xs = finite_vec(g);
        let mut st = OnlineStats::new();
        for &x in &xs {
            st.push(x);
        }
        assert!(st.min() <= st.mean() + 1e-9);
        assert!(st.mean() <= st.max() + 1e-9);
        assert!(st.variance() >= -1e-9);
    });
}

#[test]
fn geometric_mean_below_arithmetic() {
    run_cases(256, 0x57A7_0003, |g| {
        let xs = positive_vec(g);
        let gm = geometric_mean(&xs);
        let am: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(gm <= am * (1.0 + 1e-9), "AM-GM violated: {gm} > {am}");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(0.0f64, f64::max);
        assert!(gm >= lo * (1.0 - 1e-9) && gm <= hi * (1.0 + 1e-9));
    });
}

#[test]
fn quantile_is_bounded_and_monotone() {
    run_cases(256, 0x57A7_0004, |g| {
        let xs = finite_vec(g);
        let q1 = g.f64_in(0.0..1.0);
        let q2 = g.f64_in(0.0..1.0);
        let (qlo, qhi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let lo = quantile(&xs, qlo);
        let hi = quantile(&xs, qhi);
        assert!(lo <= hi + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo >= min - 1e-9 && hi <= max + 1e-9);
    });
}

#[test]
fn ecdf_is_monotone_and_normalized() {
    run_cases(256, 0x57A7_0005, |g| {
        let xs = finite_vec(g);
        let e = Ecdf::new(xs);
        let probes: Vec<f64> = vec![-1e7, -1.0, 0.0, 1.0, 1e7];
        let mut prev = 0.0;
        for p in probes {
            let f = e.fraction_leq(p);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= prev - 1e-12);
            prev = f;
        }
        assert_eq!(e.fraction_leq(1e7), 1.0);
        // inverse is consistent: F(F^-1(q)) >= q
        for q in [0.1, 0.5, 0.9] {
            let v = e.inverse(q);
            assert!(e.fraction_leq(v) >= q - 1e-12);
        }
    });
}

#[test]
fn p2_estimate_within_sample_range() {
    run_cases(256, 0x57A7_0006, |g| {
        let xs = g.vec(5..400, |g| g.f64_in(-1e4..1e4));
        let q = g.f64_in(0.05..0.95);
        let mut est = P2Quantile::new(q);
        for &x in &xs {
            est.push(x);
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let e = est.estimate();
        assert!(
            e >= min - 1e-9 && e <= max + 1e-9,
            "estimate {e} outside [{min},{max}]"
        );
    });
}

#[test]
fn p2_tracks_exact_quantile_on_distribution_streams() {
    // The P² estimator never stores the sample, so judge it where it is
    // meaningful: in *rank* space. For each random stream we compute the
    // empirical CDF position of the P² estimate and demand it sit within
    // a few percentile points of the target quantile — a scale-free
    // envelope that holds for uniform, exponential and heavy-tailed
    // log-normal streams alike (an absolute-value envelope would be
    // meaningless at a log-normal p99).
    use dare_simcore::dist::{Exponential, LogNormal};
    run_cases(128, 0x57A7_0009, |g| {
        let n = g.usize_in(500..3000);
        let q = *g.pick(&[0.5, 0.9, 0.95, 0.99]);
        let dist = g.usize_in(0..3);
        let mut rng = g.rng().substream("p2-stream");
        let xs: Vec<f64> = (0..n)
            .map(|_| match dist {
                0 => rng.uniform_range(-50.0, 150.0),
                1 => Exponential::from_mean(10.0).sample(&mut rng),
                _ => LogNormal::from_median(8.0, 1.5).sample(&mut rng),
            })
            .collect();
        let mut est = P2Quantile::new(q);
        for &x in &xs {
            est.push(x);
        }
        let e = est.estimate();
        // Empirical CDF position of the estimate.
        let rank = xs.iter().filter(|&&x| x <= e).count() as f64 / n as f64;
        // Sampling noise of an order statistic is ~sqrt(q(1-q)/n); allow
        // several multiples of it for the estimator's own marker error.
        let tol = 0.02 + 6.0 * (q * (1.0 - q) / n as f64).sqrt();
        assert!(
            (rank - q).abs() <= tol,
            "P² rank drift: dist={dist} n={n} q={q} estimate={e} \
             sits at rank {rank:.4} (tol {tol:.4}, exact {})",
            quantile(&xs, q),
        );
        // And the exact quantile itself must sit inside the same envelope
        // around the estimate's rank — i.e. both point at the same tail.
        let exact = quantile(&xs, q);
        assert!(
            (e - exact).abs() <= (exact.abs() + 1.0) * 0.5,
            "P² wildly off: dist={dist} n={n} q={q} est={e} exact={exact}"
        );
    });
}

#[test]
fn zipf_cdf_monotone_and_complete() {
    run_cases(128, 0x57A7_0007, |g| {
        let n = g.usize_in(1..500);
        let s = g.f64_in(0.2..2.5);
        let z = Zipf::new(n, s);
        let mut prev = 0.0;
        for k in 1..=n {
            let c = z.cdf(k);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!((z.cdf(n) - 1.0).abs() < 1e-9);
    });
}

#[test]
fn event_queue_pops_sorted_stable() {
    run_cases(256, 0x57A7_0008, |g| {
        let times = g.vec(1..300, |g| g.u64_in(0..1000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(t >= lt, "time order violated");
                if t == lt {
                    assert!(idx > lidx, "FIFO tie-break violated");
                }
            }
            last = Some((t, idx));
        }
        assert!(q.is_empty());
    });
}
