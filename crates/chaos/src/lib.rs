//! # dare-chaos — chaos fuzzing with delta-debugged counterexamples
//!
//! The bounded model checker (`dare-mc`) exhaustively verifies the
//! failure/replication protocol on 2–6-node clusters; the experiment
//! harness runs realistic clusters under *hand-written* fault schedules.
//! This crate stresses the regime between them: mid-size clusters
//! (50–500 nodes) under dense, randomly sampled fault schedules drawn
//! from the full [`dare_mapred::FaultEvent`] alphabet — kills, transient
//! crashes, rack outages, limplock slowdowns, silent corruption, network
//! partitions, and gray (degraded-but-alive) nodes.
//!
//! ## Pipeline
//!
//! 1. **Sample** ([`sample`]): each run index maps through its own named
//!    [`dare_simcore::DetRng`] substream to a valid-by-construction
//!    [`dare_mapred::FaultPlan`] — same `(seed, knobs)`, same schedule,
//!    byte for byte, regardless of thread count.
//! 2. **Run** ([`run`]): the real `mapred::engine` executes the plan with
//!    every `simcore::check` invariant armed, wrapped in `catch_unwind`
//!    so an engine panic is a verdict, not a fuzzer crash.
//! 3. **Shrink** ([`shrink`]): on any violation, ddmin over the plan's
//!    events followed by per-event time/duration shrinking yields a
//!    locally-minimal plan that still fails with the *same* invariant.
//! 4. **Export** ([`mod@fuzz`]): the minimal plan is written as replayable
//!    JSON (`dare-sim --fault-plan`) plus a `#`-header golden-trace
//!    counterexample in the exact format `dare-mc` emits (shared
//!    [`dare_trace::counterexample`] writer), and replay-verified before
//!    the fuzzer reports it.

#![warn(missing_docs)]

pub mod fuzz;
pub mod run;
pub mod sample;
pub mod shrink;

pub use fuzz::{bench_json, fuzz, replay_counterexample, ChaosReport, ChaosViolation};
pub use run::{run_plan, ChaosEnv, RunOutcome, Verdict};
pub use sample::sample_plan;
pub use shrink::{shrink_plan, ShrinkStats};

/// Which [`dare_mapred::FaultEvent`] kinds the sampler may draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alphabet {
    /// Permanent node kills.
    pub kill: bool,
    /// Transient crash/rejoin pairs.
    pub crash: bool,
    /// Whole-rack transient outages.
    pub rack_outage: bool,
    /// Limplock slowdowns (disk + compute).
    pub slowdown: bool,
    /// Silent replica corruption.
    pub corrupt: bool,
    /// Two-sided network partitions.
    pub partition: bool,
    /// Gray failures (degraded I/O, still heartbeating).
    pub gray: bool,
}

impl Default for Alphabet {
    fn default() -> Self {
        Alphabet::all()
    }
}

impl Alphabet {
    /// Every fault kind enabled.
    pub fn all() -> Self {
        Alphabet {
            kill: true,
            crash: true,
            rack_outage: true,
            slowdown: true,
            corrupt: true,
            partition: true,
            gray: true,
        }
    }

    /// Parse `"all"` or a comma list of kind names
    /// (`kill,crash,rack,slowdown,corrupt,partition,gray`).
    pub fn parse(s: &str) -> Result<Alphabet, String> {
        if s == "all" {
            return Ok(Alphabet::all());
        }
        let mut a = Alphabet {
            kill: false,
            crash: false,
            rack_outage: false,
            slowdown: false,
            corrupt: false,
            partition: false,
            gray: false,
        };
        for part in s.split(',') {
            match part.trim() {
                "kill" => a.kill = true,
                "crash" => a.crash = true,
                "rack" | "rack_outage" => a.rack_outage = true,
                "slowdown" | "slow" => a.slowdown = true,
                "corrupt" | "corruption" => a.corrupt = true,
                "partition" => a.partition = true,
                "gray" | "gray_node" => a.gray = true,
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} \
                         (kill|crash|rack|slowdown|corrupt|partition|gray)"
                    ))
                }
            }
        }
        if a.enabled().is_empty() {
            return Err("empty fault alphabet".into());
        }
        Ok(a)
    }

    /// The enabled kinds, in a fixed canonical order (the sampler indexes
    /// into this, so the order is part of the schedule determinism
    /// contract).
    pub fn enabled(&self) -> Vec<Kind> {
        let mut v = Vec::new();
        if self.kill {
            v.push(Kind::Kill);
        }
        if self.crash {
            v.push(Kind::Crash);
        }
        if self.rack_outage {
            v.push(Kind::RackOutage);
        }
        if self.slowdown {
            v.push(Kind::Slowdown);
        }
        if self.corrupt {
            v.push(Kind::Corrupt);
        }
        if self.partition {
            v.push(Kind::Partition);
        }
        if self.gray {
            v.push(Kind::Gray);
        }
        v
    }

    /// Canonical comma-list rendering (inverse of [`Alphabet::parse`]).
    pub fn encode(&self) -> String {
        if *self == Alphabet::all() {
            return "all".into();
        }
        let names: Vec<&str> = self
            .enabled()
            .iter()
            .map(|k| match k {
                Kind::Kill => "kill",
                Kind::Crash => "crash",
                Kind::RackOutage => "rack",
                Kind::Slowdown => "slowdown",
                Kind::Corrupt => "corrupt",
                Kind::Partition => "partition",
                Kind::Gray => "gray",
            })
            .collect();
        names.join(",")
    }
}

/// One fault kind the sampler can draw (mirrors the
/// [`dare_mapred::FaultEvent`] variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Permanent kill.
    Kill,
    /// Transient crash.
    Crash,
    /// Rack outage.
    RackOutage,
    /// Limplock slowdown.
    Slowdown,
    /// Silent corruption.
    Corrupt,
    /// Network partition.
    Partition,
    /// Gray failure.
    Gray,
}

/// Bounds and knobs of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Worker nodes in the fuzzed cluster (mid-size regime: 50–500; the
    /// validator admits 8..=1000 so tests can run smaller).
    pub nodes: u32,
    /// Fault-injection horizon: every sampled fault lands in
    /// `[1, horizon_secs]`.
    pub horizon_secs: u64,
    /// Mean fault events per sampled schedule; each run draws
    /// `1..=2·density` events.
    pub density: f64,
    /// Which fault kinds the sampler draws.
    pub alphabet: Alphabet,
    /// Campaign seed: run `i` samples from substream `("chaos-run", i)`,
    /// and the engine itself always runs on this seed (fixed topology and
    /// workload — coverage comes from the schedules).
    pub seed: u64,
    /// Maximum schedules to try.
    pub budget_runs: u64,
    /// Wall-clock budget in seconds; `0` disables the clock. Checked
    /// between batches, so (unlike `budget_runs`) where it cuts off is
    /// machine-dependent — verdicts for the runs that did execute are
    /// still deterministic.
    pub budget_secs: u64,
    /// Worker threads for the fuzz loop; `0` means all available cores.
    /// Verdicts are thread-count-invariant: runs are processed in fixed
    /// batches and judged in run-index order.
    pub threads: usize,
    /// Delta-debug any violation down to a locally-minimal plan.
    pub shrink: bool,
    /// Arm the engine's deliberate recovery-path mutation
    /// (`SimConfig::seeded_bug_skip_heal_recheck`) to validate the whole
    /// find→shrink→replay pipeline end to end. Also pins
    /// `max_recovery_streams` to 1, the regime where that bug is
    /// reachable.
    pub seeded_bug: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            nodes: 50,
            horizon_secs: 240,
            density: 5.0,
            alphabet: Alphabet::all(),
            seed: 0xC4A0_5FA7,
            budget_runs: 256,
            budget_secs: 0,
            threads: 0,
            shrink: true,
            seeded_bug: false,
        }
    }
}

impl ChaosConfig {
    /// Sanity-check the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if !(8..=1000).contains(&self.nodes) {
            return Err(format!("nodes {} out of 8..=1000", self.nodes));
        }
        if self.horizon_secs < 10 {
            return Err(format!("horizon {}s too short (min 10)", self.horizon_secs));
        }
        if self.density.is_nan() || self.density < 0.5 || self.density > 64.0 {
            return Err(format!("density {} out of [0.5, 64]", self.density));
        }
        if self.budget_runs == 0 {
            return Err("zero run budget".into());
        }
        if self.alphabet.enabled().is_empty() {
            return Err("empty fault alphabet".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_parses_and_encodes() {
        assert_eq!(Alphabet::parse("all").unwrap(), Alphabet::all());
        let a = Alphabet::parse("crash, partition,gray").unwrap();
        assert!(a.crash && a.partition && a.gray);
        assert!(!a.kill && !a.rack_outage && !a.slowdown && !a.corrupt);
        assert_eq!(a.encode(), "crash,partition,gray");
        assert_eq!(Alphabet::parse(&a.encode()).unwrap(), a);
        assert_eq!(Alphabet::all().encode(), "all");
        assert!(Alphabet::parse("warp").is_err());
        assert!(Alphabet::parse("").is_err());
    }

    #[test]
    fn config_bounds_validated() {
        assert!(ChaosConfig::default().validate().is_ok());
        assert!(ChaosConfig {
            nodes: 4,
            ..ChaosConfig::default()
        }
        .validate()
        .is_err());
        assert!(ChaosConfig {
            nodes: 2000,
            ..ChaosConfig::default()
        }
        .validate()
        .is_err());
        assert!(ChaosConfig {
            horizon_secs: 5,
            ..ChaosConfig::default()
        }
        .validate()
        .is_err());
        assert!(ChaosConfig {
            density: 0.0,
            ..ChaosConfig::default()
        }
        .validate()
        .is_err());
        assert!(ChaosConfig {
            budget_runs: 0,
            ..ChaosConfig::default()
        }
        .validate()
        .is_err());
    }
}
