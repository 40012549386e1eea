//! # dare-xray — critical-path & blocked-time attribution
//!
//! The tracing layer records *what happened*; this crate answers *where
//! the time went*. It consumes a [`dare_trace::Trace`] (in-memory, or
//! re-hydrated from a JSONL export via [`dare_trace::from_jsonl`]) and
//! produces:
//!
//! 1. a **per-task lifecycle decomposition** — every committed map
//!    task's `submit → queued → scheduled → fetching → running →
//!    committed` wall clock bucketed into queue wait, scheduler
//!    delay-skip time, remote-fetch transfer, compute, retry/backoff,
//!    and recovery-interference time (fetch seconds spent overlapping
//!    re-replication flows);
//! 2. a **job-level critical path** — the chain through the
//!    last-committing map task and the reduce barrier, with per-edge
//!    attribution, so "critical-path seconds attributable to non-local
//!    fetches" is a first-class number; and
//! 3. **what-if estimators** — counterfactual turnaround bounds under
//!    all-local fetches, zero scheduler delay, and zero faults.
//!
//! All arithmetic is integer microseconds, so the invariants are exact:
//! a task's components sum to its measured wall clock, a job's
//! critical-path components plus the reduce barrier sum to its measured
//! turnaround, and every what-if bound is ≤ the actual turnaround
//! ([`XrayReport::check`] verifies all three). Exports (CSV, JSON,
//! terminal table) format those integers directly and are byte-stable
//! across runs, platforms, and thread counts.
//!
//! Like `dare-trace`, this crate sits below the domain crates: it
//! depends only on `dare-simcore` and `dare-trace`, so the CLI, the
//! bench harness, and tests can all share one attribution engine.

#![warn(missing_docs)]

pub mod analyze;
pub mod export;

pub use analyze::{analyze, Bucket, CpEdge, JobXray, TaskBreakdown, Totals, XrayReport};
pub use export::{secs, table, to_csv, to_json, CSV_HEADER};
