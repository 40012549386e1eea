//! # dare-core — the DARE adaptive replication algorithms
//!
//! The paper's contribution (Section IV), transcribed faithfully from its
//! pseudocode. DARE runs **independently at every data node**: each node
//! watches the map tasks scheduled on it and decides, task by task, whether
//! to keep the bytes a remote fetch already moved — turning a throwaway
//! read into a new first-order replica at zero extra network cost.
//!
//! Two algorithm families, both one [`Policy`] per node, chosen by
//! [`PolicyKind`]:
//!
//! * [`PolicyKind::GreedyLru`] — **Algorithm 1**: every non-local map task
//!   replicates its block; a per-node *replication budget* bounds the extra
//!   storage; eviction is least-recently-used with lazy deletion, skipping
//!   victims that belong to the same file as the incoming block (same file
//!   ⇒ same popularity ⇒ pointless swap).
//! * [`PolicyKind::ElephantTrap`] — **Algorithm 2**: a probabilistic
//!   adaptation of the ElephantTrap heavy-hitter detector (Lu, Prabhakar &
//!   Bonomi, HOTI'07). A coin with probability *p* gates both replication
//!   and access-count refresh; eviction walks a circular list, halving
//!   access counts (*competitive aging*) until it finds a block whose count
//!   fell below *threshold*. Sampling plus aging is what suppresses the
//!   thrashing the greedy scheme suffers, at ~half the disk writes.
//!
//! The budget, the tracked-replica bookkeeping, lazy deletion and the
//! same-file exclusion are written once, in [`policy`]; the kinds differ
//! only in sampling, refresh, the admission pre-check and victim choice.
//!
//! Also here: [`trap::CircularTrap`], the reusable generic circular-list
//! structure both the policy and any heavy-hitter application can use, and
//! [`PolicyKind::Lfu`], the least-frequently-used strawman the paper's
//! Section IV discussion of eviction choices calls for profiling against.

#![warn(missing_docs)]

mod elephant;
mod greedy_lru;
mod lfu;
pub mod policy;
pub mod trap;

pub use policy::{Policy, PolicyCtx, PolicyKind, PolicyStats, ReplicationDecision};
pub use trap::CircularTrap;
