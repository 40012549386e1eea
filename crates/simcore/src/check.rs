//! A miniature property-testing harness.
//!
//! The workspace builds fully offline, so `proptest` is not available.
//! This module provides the 10% of it the test suites actually use:
//! run a closure over many seeded random cases, and on failure report
//! the case seed so the exact input can be replayed by pinning it.
//!
//! ```
//! use dare_simcore::check::{run_cases, Gen};
//!
//! run_cases(32, 0xDA4E, |g: &mut Gen| {
//!     let xs: Vec<u32> = g.vec(1..10, |g| g.u32_in(0..100));
//!     let mut sorted = xs.clone();
//!     sorted.sort_unstable();
//!     assert_eq!(sorted.len(), xs.len());
//! });
//! ```
//!
//! There is no input shrinking: inputs here are small (dozens of
//! elements), and the printed case seed replays the failure exactly,
//! which has proven sufficient to debug every failure so far.

use crate::rng::DetRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random input generator handed to each property case.
///
/// Thin wrapper over [`DetRng`] with range/collection helpers mirroring
/// the proptest strategies the suites used (`0u64..64`, `vec(.., 1..12)`,
/// and so on). All ranges are half-open `lo..hi`.
pub struct Gen {
    rng: DetRng,
}

impl Gen {
    /// Build a generator for one case from its case seed.
    pub fn new(case_seed: u64) -> Self {
        Gen {
            rng: DetRng::new(case_seed),
        }
    }

    /// Borrow the underlying RNG for draws the helpers don't cover.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, r: std::ops::Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range");
        r.start + self.rng.index(r.end - r.start)
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, r: std::ops::Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        r.start + self.rng.index((r.end - r.start) as usize) as u64
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, r: std::ops::Range<u32>) -> u32 {
        self.u64_in(r.start as u64..r.end as u64) as u32
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, r: std::ops::Range<f64>) -> f64 {
        self.rng.uniform_range(r.start, r.end)
    }

    /// Bernoulli draw with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng.coin(p)
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `item`.
    pub fn vec<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.rng.index(xs.len())]
    }
}

/// The named invariants of the failure/replication protocol.
///
/// One shared catalog serves three consumers: the engine's per-event
/// checks, the property suites, and the bounded model checker — so a
/// violation is reported under the same name no matter which harness
/// caught it. Structural invariants hold after *every* dispatched event;
/// terminal invariants hold once the simulation reaches quiescence;
/// path invariants are judged over a whole execution by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvariantId {
    /// Free + running slots on every live node equal its configured slots.
    SlotConservation,
    /// A node declared dead is also crashed and holds zero free slots.
    DeclaredImpliesCrashed,
    /// The scheduler's free-node index matches per-node free slot counts.
    SchedulerIndexSync,
    /// Concurrent re-replication transfers never exceed the stream cap.
    RecoveryStreamCap,
    /// A block counted lost has no surviving physical replica anywhere.
    LostBlocksUnrecoverable,
    /// No block is lost while concurrent failures stay below RF.
    NoLossBelowRf,
    /// Primary replica count per block stays within RF plus rejoins.
    PrimaryWithinRf,
    /// A quarantined replica is gone from both datanode and namenode.
    QuarantineNoReads,
    /// Every non-failed job finishes all its maps and reduces.
    TerminalCompleteness,
    /// Node-local + rack-local + remote map counts partition the maps.
    LocalityPartition,
    /// Every in-flight repair targets a block that needed it.
    RereplicationConvergence,
}

impl InvariantId {
    /// Every invariant in the catalog, in a stable report order.
    pub const ALL: [InvariantId; 11] = [
        InvariantId::SlotConservation,
        InvariantId::DeclaredImpliesCrashed,
        InvariantId::SchedulerIndexSync,
        InvariantId::RecoveryStreamCap,
        InvariantId::LostBlocksUnrecoverable,
        InvariantId::NoLossBelowRf,
        InvariantId::PrimaryWithinRf,
        InvariantId::QuarantineNoReads,
        InvariantId::TerminalCompleteness,
        InvariantId::LocalityPartition,
        InvariantId::RereplicationConvergence,
    ];

    /// Stable kebab-case identifier (used in reports and counterexamples).
    pub fn name(self) -> &'static str {
        match self {
            InvariantId::SlotConservation => "slot-conservation",
            InvariantId::DeclaredImpliesCrashed => "declared-implies-crashed",
            InvariantId::SchedulerIndexSync => "scheduler-index-sync",
            InvariantId::RecoveryStreamCap => "recovery-stream-cap",
            InvariantId::LostBlocksUnrecoverable => "lost-blocks-unrecoverable",
            InvariantId::NoLossBelowRf => "no-loss-below-rf",
            InvariantId::PrimaryWithinRf => "primary-within-rf",
            InvariantId::QuarantineNoReads => "quarantine-no-reads",
            InvariantId::TerminalCompleteness => "terminal-completeness",
            InvariantId::LocalityPartition => "locality-partition",
            InvariantId::RereplicationConvergence => "rereplication-convergence",
        }
    }

    /// One-line human definition of the property.
    pub fn description(self) -> &'static str {
        match self {
            InvariantId::SlotConservation => {
                "free + running map/reduce slots on every live node equal its configured slots"
            }
            InvariantId::DeclaredImpliesCrashed => {
                "a node declared dead is also crashed and advertises zero free slots"
            }
            InvariantId::SchedulerIndexSync => {
                "the scheduler's reduce-free-node index agrees with per-node free slot counts"
            }
            InvariantId::RecoveryStreamCap => {
                "concurrent re-replication transfers never exceed max_recovery_streams"
            }
            InvariantId::LostBlocksUnrecoverable => {
                "a block counted as lost has no surviving physical replica on any node"
            }
            InvariantId::NoLossBelowRf => {
                "no block is lost on a path whose concurrent-failure count stays below RF"
            }
            InvariantId::PrimaryWithinRf => {
                "primary replicas per block never exceed the target RF plus one per node rejoin \
                 (a rejoining node re-registers surviving primaries; excess is never deleted)"
            }
            InvariantId::QuarantineNoReads => {
                "a quarantined replica is removed from datanode and namenode, so no read can hit it"
            }
            InvariantId::TerminalCompleteness => {
                "every non-failed job completes all of its map and reduce tasks"
            }
            InvariantId::LocalityPartition => {
                "node-local, rack-local, and remote map counts sum to a job's total maps"
            }
            InvariantId::RereplicationConvergence => {
                "every in-flight re-replication transfer started while its block was under RF \
                 (repair is need-driven: a healed block is re-checked, not blindly copied)"
            }
        }
    }
}

/// Cap on violation messages an [`Invariants`] collector stores.
/// Exhaustive exploration can trip the same broken invariant millions of
/// times; beyond this many stored strings only the counter grows.
pub const MAX_STORED_VIOLATIONS: usize = 32;

/// A runtime invariant collector: accumulate violations instead of
/// panicking on the first one, so a simulation can report *every* broken
/// invariant of an event in one structured error.
///
/// Stored messages are capped at [`MAX_STORED_VIOLATIONS`]; the total
/// count keeps incrementing past the cap and is reported by
/// [`Invariants::into_result`].
///
/// ```
/// use dare_simcore::check::{InvariantId, Invariants};
///
/// let mut inv = Invariants::new();
/// inv.check(1 + 1 == 2, || "arithmetic".into());
/// inv.check_id(InvariantId::SlotConservation, false, || {
///     format!("slot count drifted on node {}", 3)
/// });
/// assert!(!inv.is_ok());
/// assert_eq!(inv.violations().len(), 1);
/// assert_eq!(inv.total_violations(), 1);
/// let err = inv.into_result().unwrap_err();
/// assert!(err.contains("node 3"));
/// assert!(err.contains("slot-conservation"));
/// ```
#[derive(Debug, Default)]
pub struct Invariants {
    violations: Vec<String>,
    total: u64,
}

impl Invariants {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a violation when `ok` is false. The message closure only
    /// runs on failure, so checks in hot loops stay cheap.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.total += 1;
            if self.violations.len() < MAX_STORED_VIOLATIONS {
                self.violations.push(msg());
            }
        }
    }

    /// Record a violation of a named catalog invariant. The stored
    /// message is prefixed with the invariant's stable name.
    pub fn check_id(&mut self, id: InvariantId, ok: bool, msg: impl FnOnce() -> String) {
        self.check(ok, || format!("[{}] {}", id.name(), msg()));
    }

    /// Violations recorded so far (at most [`MAX_STORED_VIOLATIONS`]).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total violations observed, including those past the storage cap.
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// True when nothing has been violated.
    pub fn is_ok(&self) -> bool {
        self.total == 0
    }

    /// `Ok(())` when clean, otherwise the total violation count followed
    /// by every stored message joined into one string (with a suffix
    /// noting how many messages the cap dropped, if any).
    pub fn into_result(self) -> Result<(), String> {
        if self.total == 0 {
            Ok(())
        } else {
            let mut msg = format!(
                "{} violation(s): {}",
                self.total,
                self.violations.join("; ")
            );
            let dropped = self.total - self.violations.len() as u64;
            if dropped > 0 {
                msg.push_str(&format!(" (+{dropped} more not stored)"));
            }
            Err(msg)
        }
    }
}

/// Case-count override for extended property runs: returns the value of
/// `DARE_PROP_CASES` when it is set to a positive integer, else
/// `default`. The nightly CI job sets the variable to run the same
/// suites at many times the per-commit iteration count.
pub fn env_cases(default: usize) -> usize {
    std::env::var("DARE_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Run `f` over `cases` random cases derived from `seed`.
///
/// Panics (failing the enclosing `#[test]`) on the first failing case,
/// reporting the case index and case seed. To replay a failure in
/// isolation, call `f(&mut Gen::new(reported_seed))` directly.
pub fn run_cases(cases: usize, seed: u64, mut f: impl FnMut(&mut Gen)) {
    let root = DetRng::new(seed);
    for i in 0..cases {
        let case_seed = root.substream_idx("case", i as u64).seed();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen::new(case_seed);
            f(&mut g);
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!(
                "property failed at case {i}/{cases} (case seed {case_seed:#x}): {msg}\n\
                 replay with: f(&mut Gen::new({case_seed:#x}))"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        run_cases(5, 42, |g| first.push(g.u64_in(0..1_000_000)));
        let mut second: Vec<u64> = Vec::new();
        run_cases(5, 42, |g| second.push(g.u64_in(0..1_000_000)));
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn different_cases_differ() {
        let mut draws: Vec<u64> = Vec::new();
        run_cases(8, 42, |g| draws.push(g.u64_in(0..u64::MAX - 1)));
        let mut dedup = draws.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), draws.len(), "cases reuse the same stream");
    }

    #[test]
    #[should_panic(expected = "property failed at case")]
    fn failure_reports_case_seed() {
        run_cases(10, 1, |g| {
            let x = g.u32_in(0..100);
            assert!(x < 101, "unreachable");
            if g.bool(0.9) {
                panic!("boom");
            }
        });
    }

    #[test]
    fn invariants_collect_all_violations() {
        let mut inv = Invariants::new();
        inv.check(true, || unreachable!("closure must not run when ok"));
        inv.check(false, || "first".into());
        inv.check(false, || "second".into());
        assert!(!inv.is_ok());
        assert_eq!(inv.violations(), &["first", "second"]);
        assert_eq!(inv.total_violations(), 2);
        let err = inv.into_result().unwrap_err();
        assert_eq!(err, "2 violation(s): first; second");
        assert!(Invariants::new().into_result().is_ok());
    }

    #[test]
    fn invariants_cap_stored_messages_but_count_all() {
        let mut inv = Invariants::new();
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 100) {
            inv.check(false, || format!("violation {i}"));
        }
        assert_eq!(inv.violations().len(), MAX_STORED_VIOLATIONS);
        assert_eq!(inv.total_violations(), MAX_STORED_VIOLATIONS as u64 + 100);
        let err = inv.into_result().unwrap_err();
        assert!(err.starts_with("132 violation(s):"), "{err}");
        assert!(err.ends_with("(+100 more not stored)"), "{err}");
    }

    #[test]
    fn invariant_catalog_names_are_unique_and_stable() {
        let mut names: Vec<&str> = InvariantId::ALL.iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), InvariantId::ALL.len());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), InvariantId::ALL.len(), "duplicate names");
        for id in InvariantId::ALL {
            assert!(!id.description().is_empty());
        }
        let mut inv = Invariants::new();
        inv.check_id(InvariantId::RecoveryStreamCap, false, || "5 > 4".into());
        assert_eq!(inv.violations(), &["[recovery-stream-cap] 5 > 4"]);
    }

    #[test]
    fn vec_respects_length_range() {
        run_cases(50, 7, |g| {
            let v = g.vec(1..12, |g| g.u64_in(0..64));
            assert!((1..12).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 64));
        });
    }
}
