//! Simulation configuration.

use crate::faults::{FaultEvent, FaultPlan};
use crate::scarlett::ScarlettConfig;
use dare_core::PolicyKind;
use dare_dfs::DfsConfig;
use dare_net::{ClusterProfile, Topology};
pub use dare_sched::SchedulerKind;
use dare_simcore::{DetRng, SimDuration};

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster environment (CCT or EC2 models).
    pub profile: ClusterProfile,
    /// File-system knobs (block size, replication factor, report delay).
    pub dfs: DfsConfig,
    /// DARE policy (or `Vanilla` baseline).
    pub policy: PolicyKind,
    /// Scheduler.
    pub scheduler: SchedulerKind,
    /// Dynamic-replica budget per node, as a fraction of the node's share
    /// of primary data (replicas included) — the paper's `budget` knob.
    pub budget_frac: f64,
    /// Heartbeat interval (Hadoop default 3 s).
    pub heartbeat: SimDuration,
    /// Experiment seed; every random stream derives from it.
    pub seed: u64,
    /// Optional proactive epoch-based replication baseline (Scarlett),
    /// usually combined with `PolicyKind::Vanilla` so exactly one
    /// replication scheme is active.
    pub scarlett: Option<ScarlettConfig>,
    /// Fault-injection plan: permanent kills, transient crash/rejoin
    /// pairs, rack outages, and slow-node degradation, plus the
    /// detection/retry/recovery knobs. Empty by default — an empty plan
    /// is bit-identical to a fault-free run.
    pub faults: FaultPlan,
    /// Speculative execution of stragglers (Hadoop-style backup tasks).
    pub speculation: Option<SpeculationConfig>,
    /// Record a structured [`dare_trace`] event log of the whole run
    /// (scheduling, flows, replication, faults) into
    /// [`crate::SimResult::trace`]. Observation-only: a traced run is
    /// bit-identical to an untraced one. Off by default.
    pub record_trace: bool,
    /// Run the structural invariant checks from `dare_simcore::check`
    /// after every dispatched event (no block lost while a live replica
    /// exists, slot conservation, every task terminates). Expensive; for
    /// tests and the resilience experiment.
    pub check_invariants: bool,
    /// Periodic cluster-state sampling into
    /// [`crate::SimResult::telemetry`]. Observation-only: a sampled run
    /// is bit-identical to an unsampled one, and `None` (the default)
    /// costs a single branch per dispatched event.
    pub telemetry: Option<TelemetryConfig>,
    /// Wall-clock self-profiling of the event-dispatch arms into
    /// [`crate::SimResult::profile`]. Wall time never feeds the
    /// simulation, so a profiled run stays bit-identical. Off by default.
    pub self_profile: bool,
    /// Batch periodic heartbeats into one timer event per interval that
    /// drains a per-node ring, instead of one queue event per node. Cuts
    /// event volume by O(nodes) per interval — the difference between
    /// thousands and millions of queue operations on a 10k-node run —
    /// but *changes timing*: batched heartbeats fire simultaneously and
    /// unjittered, so results differ from the unbatched default. Off by
    /// default; the throughput benchmarks and headline-scale runs
    /// enable it.
    pub batched_heartbeats: bool,
    /// Background block scanner (the HDFS DataBlockScanner analog):
    /// periodic per-node scrub passes that checksum resident replicas and
    /// quarantine corrupt ones between reads. The scrub budget is drawn
    /// against the node's disk model, so scrubbing contends with task
    /// I/O. `None` (the default) disables scanning entirely and is
    /// byte-identical to pre-scanner behaviour.
    pub scanner: Option<ScannerConfig>,
    /// **Deliberate protocol mutation for checker validation**: make
    /// `pump_recovery` skip its pop-time re-check that a queued block is
    /// still under-replicated, so a block healed by a rejoin between
    /// enqueue and pop spawns a needless repair transfer. The
    /// `rereplication-convergence` invariant catches the spurious flow;
    /// the model checker's self-test and the `mc --seeded-bug` run use
    /// this knob to prove the catalog actually bites. Never enable it in
    /// a real experiment.
    pub seeded_bug_skip_heal_recheck: bool,
}

/// Background block-scanner tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannerConfig {
    /// Idle gap between the end of one scrub pass and the start of the
    /// next on a node.
    pub period: SimDuration,
    /// Disk read budget of a scrub pass, bytes per second. One pass takes
    /// `resident_bytes / bytes_per_sec`; while it runs the node's
    /// effective disk bandwidth for task reads is reduced by this budget.
    pub bytes_per_sec: u64,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        // Rough HDFS defaults: the DataBlockScanner paces itself to cover
        // a disk over a long window; 4 MB/s against ~100 MB/s disks keeps
        // the contention tax small but visible.
        ScannerConfig {
            period: SimDuration::from_secs(60),
            bytes_per_sec: 4 * dare_net::MB,
        }
    }
}

/// Telemetry sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Simulated-clock interval between cluster-state samples. The
    /// sampler fires after *all* events sharing the tick's timestamp have
    /// drained, so a sample reflects a settled cluster state.
    pub interval: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: SimDuration::from_secs(5),
        }
    }
}

/// Speculative-execution tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Launch a backup when a running attempt has taken more than this
    /// multiple of the job's average completed map duration.
    pub slowdown_factor: f64,
    /// Never speculate before an attempt has run at least this long (s).
    pub min_elapsed_secs: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            slowdown_factor: 1.5,
            min_elapsed_secs: 5.0,
        }
    }
}

impl SimConfig {
    /// The paper's CCT setup with a given policy/scheduler combination and
    /// the headline parameters (budget 0.2).
    pub fn cct(policy: PolicyKind, scheduler: SchedulerKind, seed: u64) -> Self {
        SimConfig {
            profile: ClusterProfile::cct(),
            dfs: DfsConfig::default(),
            policy,
            scheduler,
            budget_frac: 0.2,
            heartbeat: SimDuration::from_secs(3),
            seed,
            scarlett: None,
            faults: FaultPlan::default(),
            speculation: None,
            record_trace: false,
            check_invariants: false,
            telemetry: None,
            self_profile: false,
            batched_heartbeats: false,
            scanner: None,
            seeded_bug_skip_heal_recheck: false,
        }
    }

    /// Batch periodic heartbeats into one timer event per interval (see
    /// `batched_heartbeats`; changes timing, off by default).
    pub fn with_batched_heartbeats(mut self) -> Self {
        self.batched_heartbeats = true;
        self
    }

    /// Enable structured trace recording (see `record_trace`).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enable periodic cluster-state telemetry sampling (see `telemetry`).
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enable wall-clock self-profiling of dispatch (see `self_profile`).
    pub fn with_self_profile(mut self) -> Self {
        self.self_profile = true;
        self
    }

    /// Enable the background block scanner (see `scanner`).
    pub fn with_scanner(mut self, scanner: ScannerConfig) -> Self {
        self.scanner = Some(scanner);
        self
    }

    /// Schedule node degradations at `(time_secs, node, slowdown_factor)`.
    ///
    /// Convenience wrapper appending [`FaultEvent::Slowdown`] events to
    /// the fault plan; [`SimConfig::validate`] rejects a factor below 1
    /// or an out-of-range node.
    pub fn with_degradations(mut self, degradations: Vec<(u64, u32, f64)>) -> Self {
        self.faults
            .events
            .extend(
                degradations
                    .into_iter()
                    .map(|(at_secs, node, factor)| FaultEvent::Slowdown {
                        at_secs,
                        node,
                        factor,
                        duration_secs: None,
                    }),
            );
        self
    }

    /// Enable Hadoop-style speculative execution of straggler maps.
    pub fn with_speculation(mut self, spec: SpeculationConfig) -> Self {
        self.speculation = Some(spec);
        self
    }

    /// Schedule permanent node kills at `(time_secs, node_index)` points.
    ///
    /// Convenience wrapper appending [`FaultEvent::Kill`] events to the
    /// fault plan; [`SimConfig::validate`] rejects an out-of-range node
    /// index or a duplicate kill of the same node.
    pub fn with_failures(mut self, failures: Vec<(u64, u32)>) -> Self {
        self.faults.events.extend(
            failures
                .into_iter()
                .map(|(at_secs, node)| FaultEvent::Kill { at_secs, node }),
        );
        self
    }

    /// Install a full fault-injection plan (validated when the engine is
    /// built).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable per-event structural invariant checking.
    pub fn with_invariant_checks(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Enable the proactive Scarlett baseline on this configuration.
    pub fn with_scarlett(mut self, scarlett: ScarlettConfig) -> Self {
        self.scarlett = Some(scarlett);
        self
    }

    /// The paper's 100-node EC2 setup.
    pub fn ec2(policy: PolicyKind, scheduler: SchedulerKind, seed: u64) -> Self {
        SimConfig {
            profile: ClusterProfile::ec2(),
            ..Self::cct(policy, scheduler, seed)
        }
    }

    /// The topology the engine builds for this config: the profile's
    /// shape, drawn from the `"topology"` substream of the seed. Fault
    /// plans generated for a run are validated against it.
    pub fn topology(&self) -> Topology {
        self.profile
            .build_topology(&mut DetRng::new(self.seed).substream("topology"))
    }

    /// Sanity-check parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.budget_frac) {
            return Err(format!("budget_frac {} out of [0,1]", self.budget_frac));
        }
        if self.heartbeat == SimDuration::ZERO {
            return Err("zero heartbeat interval".into());
        }
        if self.profile.nodes == 0 {
            return Err("empty cluster".into());
        }
        self.scheduler.validate()?;
        if self
            .scarlett
            .is_some_and(|sc| sc.epoch == SimDuration::ZERO)
        {
            return Err("zero Scarlett epoch".into());
        }
        if let Some(t) = &self.telemetry {
            if t.interval == SimDuration::ZERO {
                return Err("zero telemetry interval".into());
            }
        }
        if let Some(sc) = &self.scanner {
            if sc.period == SimDuration::ZERO {
                return Err("zero scanner period".into());
            }
            if sc.bytes_per_sec == 0 {
                return Err("zero scanner read budget".into());
            }
        }
        self.faults.validate(self.profile.nodes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
        assert_eq!(c.profile.nodes, 19);
        assert_eq!(c.scheduler.label(), "fifo");
        assert!(c.validate().is_ok());
        let e = SimConfig::ec2(
            PolicyKind::elephant_default(),
            SchedulerKind::fair_default(),
            1,
        );
        assert_eq!(e.profile.nodes, 99);
        assert_eq!(e.scheduler.label(), "fair");
        assert!((e.budget_frac - 0.2).abs() < 1e-12);
    }

    #[test]
    fn with_failures_validates_at_build_time() {
        let c = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
        let ok = c.clone().with_failures(vec![(40, 2), (90, 7)]);
        assert_eq!(ok.faults.events.len(), 2);
        assert!(ok.validate().is_ok());
        let out_of_range = c.clone().with_failures(vec![(40, 99)]);
        assert!(
            out_of_range.validate().is_err(),
            "node 99 on a 19-node cluster"
        );
        let duplicate = c.with_failures(vec![(40, 2), (90, 2)]);
        assert!(duplicate.validate().is_err(), "duplicate kill of node 2");
    }

    #[test]
    fn validation_catches_bad_budget() {
        let mut c = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
        c.budget_frac = 1.5;
        assert!(c.validate().is_err());
        c.budget_frac = 0.5;
        c.heartbeat = SimDuration::ZERO;
        assert!(c.validate().is_err());
        c.heartbeat = SimDuration::from_secs(3);
        c.scheduler = SchedulerKind::Capacity(0);
        assert!(c.validate().is_err(), "capacity scheduler without queues");
        c.scheduler = SchedulerKind::Capacity(1);
        assert!(c.validate().is_ok());
        c = c.with_scarlett(ScarlettConfig {
            epoch: SimDuration::ZERO,
            ..ScarlettConfig::default()
        });
        assert!(c.validate().is_err(), "zero Scarlett epoch");
    }

    #[test]
    fn scanner_builders_and_validation() {
        let c = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
        assert!(c.scanner.is_none(), "off by default");
        let s = c.clone().with_scanner(ScannerConfig::default());
        assert_eq!(s.scanner.unwrap().period, SimDuration::from_secs(60));
        assert!(s.validate().is_ok());
        let bad = c.clone().with_scanner(ScannerConfig {
            period: SimDuration::ZERO,
            bytes_per_sec: 1,
        });
        assert!(bad.validate().is_err(), "zero period rejected");
        let bad = c.with_scanner(ScannerConfig {
            period: SimDuration::from_secs(1),
            bytes_per_sec: 0,
        });
        assert!(bad.validate().is_err(), "zero budget rejected");
    }

    #[test]
    fn telemetry_builders_and_validation() {
        let c = SimConfig::cct(PolicyKind::Vanilla, SchedulerKind::Fifo, 1);
        assert!(c.telemetry.is_none(), "off by default");
        assert!(!c.self_profile);
        let t = c
            .clone()
            .with_telemetry(TelemetryConfig::default())
            .with_self_profile();
        assert_eq!(
            t.telemetry.unwrap().interval,
            SimDuration::from_secs(5),
            "default 5 s sampling interval"
        );
        assert!(t.self_profile);
        assert!(t.validate().is_ok());
        let bad = c.with_telemetry(TelemetryConfig {
            interval: SimDuration::ZERO,
        });
        assert!(bad.validate().is_err(), "zero interval rejected");
    }
}
