//! Deterministic random-number generation with substream derivation.
//!
//! Every stochastic component of the simulator (workload synthesis, bandwidth
//! sampling, scheduler tie-breaking, the DARE coin tosses...) draws from its
//! own *substream* derived from a single experiment seed. Substreams are
//! derived by hashing `(seed, label)` with SplitMix64, so adding a new
//! consumer of randomness never perturbs the draws seen by existing
//! consumers — a property plain "share one RNG" designs lack and that
//! matters when comparing policies under identical workloads.
//!
//! The generator itself is a self-contained xoshiro256++ (Blackman &
//! Vigna): the workspace builds offline, so no external `rand` crate is
//! available. xoshiro256++ passes BigCrush, has a 2^256 − 1 period, and is
//! faster than the ChaCha-based generator it replaced — the draws differ
//! from the old `rand::StdRng` stream, but no experiment depends on a
//! particular stream, only on reproducibility for a given seed.

/// SplitMix64 step — a high-quality 64-bit mixer used for seed derivation
/// and for expanding one 64-bit seed into the 256-bit xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary label into 64 bits (FNV-1a; stability matters more than
/// speed here, derivation happens once per component).
#[inline]
fn hash_label(label: &str) -> u64 {
    let mut h = crate::fnv::FNV_OFFSET;
    crate::fnv::fnv1a(&mut h, label.as_bytes());
    h
}

/// The xoshiro256++ core: 256 bits of state, `next()` emits 64 bits.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expand a 64-bit seed into a full state via SplitMix64, as the
    /// xoshiro authors recommend (guarantees a non-zero state).
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        Xoshiro256pp {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A deterministic RNG handle for one simulation component.
///
/// Wraps a self-contained xoshiro256++ stream and adds substream derivation
/// plus the small set of convenience draws the simulator uses everywhere.
///
/// ```
/// use dare_simcore::DetRng;
///
/// let mut a = DetRng::new(42).substream("scheduler");
/// let mut b = DetRng::new(42).substream("scheduler");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed + label => same stream
///
/// let mut c = DetRng::new(42).substream("workload");
/// assert_ne!(a.next_u64(), c.next_u64()); // different labels diverge
/// ```
#[derive(Clone)]
pub struct DetRng {
    seed: u64,
    inner: Xoshiro256pp,
}

impl DetRng {
    /// Root RNG for an experiment seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        // Run the seed through the mixer so small seeds (0, 1, 2...) still
        // produce well-spread generator states.
        let mixed = splitmix64(&mut s);
        DetRng {
            seed,
            inner: Xoshiro256pp::from_seed(mixed),
        }
    }

    /// Derive an independent substream identified by `label`.
    pub fn substream(&self, label: &str) -> DetRng {
        let mut s = self.seed ^ hash_label(label).rotate_left(17);
        let derived = splitmix64(&mut s);
        DetRng::new(derived)
    }

    /// Derive an independent substream identified by a numeric index
    /// (e.g. per-node streams).
    pub fn substream_idx(&self, label: &str, idx: u64) -> DetRng {
        let mut s =
            self.seed ^ hash_label(label).rotate_left(17) ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let derived = splitmix64(&mut s);
        DetRng::new(derived)
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next()
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits scaled by 2^-53: the standard uniform-double recipe.
        (self.inner.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Unbiased uniform integer in `[0, n)` via rejection sampling.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        if n.is_power_of_two() {
            return self.inner.next() & (n - 1);
        }
        // Reject draws from the final partial bucket so every residue is
        // equally likely (the classic bounded-rejection scheme).
        let zone = u64::MAX - (u64::MAX % n) - 1;
        loop {
            let v = self.inner.next();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over an empty range");
        self.below(n as u64) as usize
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0,1]`).
    ///
    /// This is the paper's "generate a random number r ∈ (0,1); if r < p"
    /// coin toss (Algorithm 2).
    pub fn coin(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            self.uniform() < p
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    /// Used by the HDFS placement policy to pick replica targets.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        // Partial Fisher–Yates over an index vector: O(n) setup, O(k) swaps.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn substreams_are_independent_of_each_other() {
        let root = DetRng::new(7);
        let mut s1 = root.substream("alpha");
        let mut s2 = root.substream("beta");
        let draws1: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        let draws2: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        assert_ne!(draws1, draws2);
        // Re-deriving reproduces the stream exactly.
        let mut s1again = root.substream("alpha");
        let again: Vec<u64> = (0..8).map(|_| s1again.next_u64()).collect();
        assert_eq!(draws1, again);
    }

    #[test]
    fn indexed_substreams_differ() {
        let root = DetRng::new(7);
        let a = root.substream_idx("node", 0).next_u64();
        let b = root.substream_idx("node", 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn coin_edge_cases() {
        let mut r = DetRng::new(1);
        assert!(r.coin(1.0));
        assert!(r.coin(1.5));
        assert!(!r.coin(0.0));
        assert!(!r.coin(-0.5));
    }

    #[test]
    fn coin_frequency_tracks_p() {
        let mut r = DetRng::new(99);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.coin(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut r = DetRng::new(4);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.index(5)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts={counts:?}");
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = DetRng::new(3);
        let s = r.sample_indices(20, 5);
        assert_eq!(s.len(), 5);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(s.iter().all(|&i| i < 20));
        // full sample is a permutation
        let mut all = r.sample_indices(10, 10);
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            let x = r.uniform_range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }
}
