//! # dare-telemetry — sampled cluster-state time-series
//!
//! `dare-trace` records *events* (what happened, one record per decision);
//! this crate records *state* (what the cluster looked like, one row per
//! sampling tick). The engine schedules a periodic sampler on the simulated
//! clock (`SimConfig::telemetry`) and snapshots slot occupancy, queue
//! depth, cumulative locality, replica overhead, under-replication, link
//! utilization and fault-counter deltas — with per-node and per-job
//! breakdowns — into a [`Telemetry`] value on the run's `SimResult`.
//!
//! Layers:
//! - [`series`]: the [`Telemetry`] time-series. The sampler names each
//!   cluster column once, where it writes the value; node and job rows
//!   are typed structs with one field list each. The byte-stable CSV and
//!   JSONL exporters walk those lists. Also a JSONL schema validator and
//!   the terminal summary table `dare-sim --telemetry` prints.
//! - [`profile`]: the wall-clock self-profiler wrapped around the engine's
//!   event-dispatch arms (sched/dfs/net/fault) and its
//!   `results/BENCH_profile.json` report format.
//!
//! Sampling is observation-only and zero-cost when disabled: the engine
//! guards every telemetry touch behind one `Option` check and the sampler
//! never pushes events into the simulation queue, so an instrumented run
//! is bit-identical to a bare one (proven by `tests/telemetry.rs`).
//!
//! Like `dare-trace`, this crate depends only on `dare-simcore` so every
//! domain crate above it can feed it without cycles.

#![warn(missing_docs)]

pub mod profile;
pub mod series;

pub use profile::{validate_profile_json, ProfileReport, Profiler, Subsystem};
pub use series::{validate_jsonl, JobPhase, JobSample, NodeSample, Telemetry, Value, Window};
