//! Structured simulation errors.
//!
//! The engine's failure paths used to `unwrap()`/`panic!` with bare
//! messages; [`SimError`] replaces those with a typed error naming the
//! event that broke, so a malformed fault plan produces a diagnosable
//! report instead of a backtrace. Internal-consistency checks that can
//! only fire on engine bugs stay as `debug_assert!`s.

use dare_simcore::SimTime;

/// A simulation that could not run to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The event queue drained before every job finished — usually a
    /// fault plan that killed the resources a job needed without any
    /// path to retry or fail it.
    Stalled {
        /// Simulation time when the queue drained.
        now: SimTime,
        /// Jobs that reached a terminal state (completed or failed).
        finished: usize,
        /// Jobs the run was supposed to terminate.
        total: usize,
        /// Map tasks still queued when the simulation stalled.
        pending: usize,
    },
    /// A network flow completed that no subsystem (fetch, proactive
    /// replication, recovery) had a record of.
    OrphanFlow {
        /// Simulation time of the completion.
        now: SimTime,
        /// The flow's identifier within the flow simulator.
        flow: u64,
    },
    /// A runtime invariant check (enabled via
    /// `SimConfig::check_invariants`) failed.
    InvariantViolation(String),
    /// The config, workload or fault plan is invalid for the cluster the
    /// engine builds (`Engine::try_new`); the message names which.
    InvalidInput(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                now,
                finished,
                total,
                pending,
            } => write!(
                f,
                "event queue drained at t={:.1}s with {finished}/{total} jobs terminal \
                 ({pending} map tasks still pending)",
                now.as_secs_f64()
            ),
            SimError::OrphanFlow { now, flow } => write!(
                f,
                "flow {flow} completed at t={:.1}s with no fetch/proactive/recovery record",
                now.as_secs_f64()
            ),
            SimError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            SimError::InvalidInput(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::Stalled {
            now: SimTime::from_secs(12),
            finished: 3,
            total: 5,
            pending: 7,
        };
        let s = e.to_string();
        assert!(s.contains("3/5"), "{s}");
        assert!(s.contains("12.0"), "{s}");
        let o = SimError::OrphanFlow {
            now: SimTime::from_secs(1),
            flow: 99,
        }
        .to_string();
        assert!(o.contains("99"), "{o}");
    }
}
