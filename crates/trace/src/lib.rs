//! Structured simulation tracing for the DARE reproduction.
//!
//! The simulator's metrics crate reports end-of-run aggregates; this crate
//! records *why* those numbers came out the way they did — a typed,
//! totally-ordered event log of scheduler decisions, network flows,
//! replication policy verdicts and fault handling, recorded only when a
//! run opts in (`SimConfig::record_trace`) and therefore zero-cost
//! otherwise.
//!
//! Layers:
//! - [`event`]: the typed event vocabulary ([`TraceEvent`]) and records.
//!   Each event's field list there is the JSONL schema.
//! - [`recorder`]: the [`Trace`], an ordered record log; its counters
//!   and P² latency percentiles are folds over the records.
//! - [`export`]: byte-stable JSONL (golden-file format) with its strict
//!   single-pass reader [`from_jsonl`], and Chrome Trace Event JSON
//!   (Perfetto-openable).
//! - [`query`]: span reconstruction and assertion helpers for tests.
//! - [`gantt`]: an ASCII per-node Gantt chart of the map-attempt spans.
//! - [`diff`]: the normalizing golden-file differ with actionable output.
//! - [`counterexample`]: the shared `#`-header counterexample artifact
//!   format `dare-mc` and `dare-chaos` both emit and replay.
//!
//! This crate depends only on `dare-simcore` so every domain crate above
//! it (dfs, sched, net, mapred) can emit into it without cycles; domain
//! ids are plain integers here.

#![warn(missing_docs)]

pub mod counterexample;
pub mod diff;
pub mod event;
pub mod export;
pub mod gantt;
pub mod query;
pub mod recorder;

pub use counterexample::{header_values, render_counterexample, strip_headers};
pub use diff::diff_golden;
pub use event::{FlowCtx, FlowKind, Loc, Subsystem, TraceEvent, TraceRecord};
pub use export::{from_jsonl, to_chrome, to_jsonl};
pub use query::{
    assert_event_order, find_first, flow_spans, span_overlaps, task_spans, FlowSpan, SpanCheck,
    TaskSpan,
};
pub use recorder::{Trace, TraceCounters};
