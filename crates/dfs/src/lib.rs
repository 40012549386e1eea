//! # dare-dfs — an HDFS-like distributed file system model
//!
//! The substrate DARE patches in the paper: files split into fixed-size
//! blocks, a **name node** holding the block→locations map, **data nodes**
//! holding replicas, and the Hadoop default placement policy. On top of the
//! vanilla behaviour this model adds exactly the hooks the paper's 228-line
//! Hadoop patch added:
//!
//! * data nodes can **insert dynamically replicated blocks** (the
//!   `DNA_DYNREPL` operation) — over-replication beyond the configured
//!   factor is tolerated;
//! * dynamic replicas become **visible to the scheduler only after the next
//!   block report/heartbeat** reaches the name node (but are readable
//!   locally immediately, since the bytes are already on the node);
//! * dynamic replicas can be **evicted** (lazy deletion: dropped from the
//!   scheduling view immediately, bytes reclaimed in the background);
//! * every block knows **which file it belongs to** (the paper's INode
//!   modification), so eviction can avoid victims from the same file as the
//!   block being inserted.
//!
//! Dynamic replicas are first-order replicas: they count toward availability
//! and are used by failure re-replication like any primary replica.
//!
//! Modules: [`ids`] (typed identifiers and metadata), [`placement`]
//! (replica-target selection policies), [`namenode`], [`datanode`], and
//! the [`Dfs`] facade tying them together.

#![warn(missing_docs)]

pub mod datanode;
pub mod dfs;
pub mod ids;
pub mod namenode;
pub mod placement;

pub use dfs::{Dfs, DfsConfig, Quarantined};
pub use ids::{BlockId, FileId};
pub use namenode::NameNode;
pub use placement::DefaultPlacement;
