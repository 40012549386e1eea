//! Scarlett — the proactive, centralized, epoch-based replication baseline
//! (Ananthanarayanan et al., EuroSys 2011), which the DARE paper contrasts
//! itself against in Section VI:
//!
//! > "While Scarlett uses a proactive replication scheme that periodically
//! > replicates files based on predicted popularity, we proposed a reactive
//! > approach that is able to adapt to popularity changes at smaller time
//! > scales."
//!
//! This module implements the comparison point so the claim is measurable:
//!
//! * the name node counts file accesses over each **epoch**;
//! * at every epoch boundary it computes a desired extra-replica count per
//!   file (one extra replica per `accesses_per_replica` observed accesses,
//!   capped), *proactively* pushes the missing replicas over the network
//!   (unlike DARE, this consumes real bandwidth — tracked), and ages out
//!   replicas of files that cooled down;
//! * placement targets are the nodes with the least dynamic-replica bytes,
//!   mirroring Scarlett's load-smoothing goal, subject to the same per-node
//!   budget DARE gets.
//!
//! The `ablation scarlett` experiment runs this head-to-head with DARE on
//! stable and drifting workloads: with epochs shorter than the workload's
//! hot-set rotation Scarlett tracks well (at a network cost); with longer
//! epochs it lags — the paper's "smaller time scales" argument.

use dare_dfs::{BlockId, FileId};
use dare_simcore::SimDuration;

/// Configuration of the proactive baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScarlettConfig {
    /// Rearrangement period (Scarlett's evaluation used minutes-scale).
    pub epoch: SimDuration,
    /// One desired extra replica per this many accesses in the last epoch.
    pub accesses_per_replica: f64,
    /// Cap on extra replicas per block.
    pub max_extra_replicas: u32,
}

impl Default for ScarlettConfig {
    fn default() -> Self {
        ScarlettConfig {
            epoch: SimDuration::from_secs(60),
            accesses_per_replica: 4.0,
            max_extra_replicas: 16,
        }
    }
}

/// Per-run state of the epoch replicator.
#[derive(Debug, Clone)]
pub struct ScarlettState {
    /// Active configuration.
    pub cfg: ScarlettConfig,
    /// Accesses per file during the current epoch.
    pub epoch_accesses: Vec<u64>,
    /// Desired extra replicas per file, from the last completed epoch.
    pub desired_extra: Vec<u32>,
    /// Bytes pushed over the network for proactive replication (the cost
    /// DARE avoids by construction).
    pub bytes_moved: u64,
    /// Proactive replicas created.
    pub replicas_created: u64,
    /// Replicas aged out at epoch boundaries.
    pub evictions: u64,
}

impl ScarlettState {
    /// Fresh state over `files` files.
    pub fn new(cfg: ScarlettConfig, files: usize) -> Self {
        ScarlettState {
            cfg,
            epoch_accesses: vec![0; files],
            desired_extra: vec![0; files],
            bytes_moved: 0,
            replicas_created: 0,
            evictions: 0,
        }
    }

    /// Record that a scheduled map task read a block of `file`.
    pub fn record_access(&mut self, file: FileId) {
        self.epoch_accesses[file.idx()] += 1;
    }

    /// Close the epoch: recompute desired extra replica counts from the
    /// observed accesses and reset the counters. Returns the files whose
    /// desire changed (ascending id) for the engine to reconcile.
    pub fn close_epoch(&mut self) -> Vec<FileId> {
        let mut changed = Vec::new();
        for (i, count) in self.epoch_accesses.iter_mut().enumerate() {
            let desired = ((*count as f64 / self.cfg.accesses_per_replica).ceil() as u32)
                .min(self.cfg.max_extra_replicas);
            if desired != self.desired_extra[i] {
                self.desired_extra[i] = desired;
                changed.push(FileId(i as u32));
            }
            *count = 0;
        }
        changed
    }

    /// Desired extra replicas of a file right now.
    pub fn desired_for(&self, file: FileId) -> u32 {
        self.desired_extra[file.idx()]
    }
}

/// A proactive replication transfer in flight.
#[derive(Debug, Clone, Copy)]
pub struct ProactiveTransfer {
    /// Block being pushed.
    pub block: BlockId,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desired_counts_follow_accesses() {
        let mut s = ScarlettState::new(
            ScarlettConfig {
                epoch: SimDuration::from_secs(60),
                accesses_per_replica: 4.0,
                max_extra_replicas: 5,
            },
            3,
        );
        for _ in 0..10 {
            s.record_access(FileId(0));
        }
        s.record_access(FileId(1));
        let changed = s.close_epoch();
        assert_eq!(changed, vec![FileId(0), FileId(1)]);
        assert_eq!(s.desired_for(FileId(0)), 3, "ceil(10/4)");
        assert_eq!(s.desired_for(FileId(1)), 1);
        assert_eq!(s.desired_for(FileId(2)), 0);

        // A quiet epoch ages the desires back down.
        let changed = s.close_epoch();
        assert_eq!(changed, vec![FileId(0), FileId(1)]);
        assert_eq!(s.desired_for(FileId(0)), 0);
    }

    #[test]
    fn desired_counts_are_capped() {
        let mut s = ScarlettState::new(
            ScarlettConfig {
                epoch: SimDuration::from_secs(60),
                accesses_per_replica: 1.0,
                max_extra_replicas: 4,
            },
            1,
        );
        for _ in 0..100 {
            s.record_access(FileId(0));
        }
        s.close_epoch();
        assert_eq!(s.desired_for(FileId(0)), 4);
    }

    #[test]
    fn unchanged_desires_are_not_reported() {
        let mut s = ScarlettState::new(ScarlettConfig::default(), 2);
        for _ in 0..8 {
            s.record_access(FileId(0));
        }
        s.close_epoch();
        // Same traffic again: desire stays 2, so nothing is "changed".
        for _ in 0..8 {
            s.record_access(FileId(0));
        }
        let changed = s.close_epoch();
        assert!(changed.is_empty());
    }
}
