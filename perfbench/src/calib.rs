//! Host-speed calibration. The shared host this benchmark runs on slows
//! down and speeds up by a quarter or more over seconds to minutes, so a
//! workload's host time moves as much with the host as with the program.
//! A fixed unit of reference work, timed between the workload's items,
//! follows the host's speed; `setup_s` and `run_s` are the host times
//! scaled to the speed at which that work takes [`NOMINAL_S`].
//!
//! The reference work sorts a fresh copy of a fixed array of random
//! numbers: like the simulator it allocates and branches on data, and its
//! time tracks the simulator's across the host's slow and fast spells (on
//! the host described in `README.md`, the log of a round's host time
//! regressed on the log of its mean sample has a slope of about 1), where
//! tight arithmetic or memory loops explain half as much of the variance.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one reference sample at the nominal speed: about its
/// time in a quiet spell on the host described in `README.md`.
pub const NOMINAL_S: f64 = 230e-6;
/// Numbers sorted per sample.
const LEN: usize = 8192;
/// Workload host time between two samples.
const EVERY_S: f64 = 0.01;

pub struct Calib {
    unsorted: Vec<u64>,
    pending_s: f64,
}

/// The host's speed over one round, as the reference samples saw it.
#[derive(Default)]
pub struct Speed {
    /// Host seconds spent in the samples themselves.
    pub sample_s: f64,
    /// Σ workload seconds × the sample that stands for them.
    weighted: f64,
    /// Σ workload seconds that a sample stands for.
    weight: f64,
}

impl Speed {
    /// The mean sample time, each sample weighted by the workload host
    /// time it stands for; `None` when the round took no sample.
    pub fn sample_mean(&self) -> Option<f64> {
        (self.weight > 0.0).then(|| self.weighted / self.weight)
    }

    /// Multiplier from host seconds of this round to nominal seconds.
    pub fn to_nominal(&self) -> f64 {
        self.sample_mean().map_or(1.0, |m| NOMINAL_S / m)
    }
}

impl Calib {
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let unsorted = (0..LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let c = Calib {
            unsorted,
            pending_s: 0.0,
        };
        // Warm the code and the allocator before any sample counts.
        for _ in 0..16 {
            c.sample();
        }
        c
    }

    /// Count `item_s` host seconds of workload; once [`EVERY_S`] have run
    /// since the last sample, take one, which stands for all of them.
    pub fn after(&mut self, item_s: f64, speed: &mut Speed) {
        self.pending_s += item_s;
        if self.pending_s >= EVERY_S {
            self.flush(speed);
        }
    }

    /// Take a sample for the workload time not yet sampled, if any.
    pub fn flush(&mut self, speed: &mut Speed) {
        if self.pending_s > 0.0 {
            let sample = self.sample();
            speed.sample_s += sample;
            speed.weighted += self.pending_s * sample;
            speed.weight += self.pending_s;
            self.pending_s = 0.0;
        }
    }

    /// Host seconds of one unit of reference work. Every call does the
    /// same work on the same data, so only the host's speed moves it.
    fn sample(&self) -> f64 {
        let start = Instant::now();
        let mut v = self.unsorted.clone();
        v.sort();
        black_box(&v);
        drop(v);
        start.elapsed().as_secs_f64()
    }
}
