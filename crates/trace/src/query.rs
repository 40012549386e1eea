//! Trace-query helpers for tests: span reconstruction, overlap checks,
//! per-job timelines, and ordered-event assertions.

use crate::event::{FlowCtx, FlowKind, Loc, TraceEvent, TraceRecord};
use crate::recorder::Trace;
use dare_simcore::time::SimTime;

/// A reconstructed map-attempt span (launch → commit/abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Owning job id.
    pub job: u32,
    /// Map task index.
    pub task: u32,
    /// Attempt number.
    pub attempt: u32,
    /// Node the attempt ran on.
    pub node: u32,
    /// Placement locality at launch.
    pub loc: Loc,
    /// True for speculative duplicate attempts.
    pub speculative: bool,
    /// Launch time.
    pub start: SimTime,
    /// When the input read finished, if it did.
    pub read_done: Option<SimTime>,
    /// Commit or abort time; `None` if the attempt never terminated
    /// (e.g. a zombie silently dropped at declare-dead).
    pub end: Option<SimTime>,
    /// True if the span ended in a commit.
    pub committed: bool,
}

/// A reconstructed network-flow span (start → finish/cancel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpan {
    /// Flow id from the network simulator.
    pub flow: u64,
    /// Why the flow existed.
    pub kind: FlowKind,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// What the flow was moving data for.
    pub ctx: FlowCtx,
    /// Start time.
    pub start: SimTime,
    /// Finish or cancel time; `None` if the run ended with the flow live.
    pub end: Option<SimTime>,
    /// True if the flow delivered all its bytes.
    pub finished: bool,
}

/// True when the half-open intervals `[a_start, a_end)` and
/// `[b_start, b_end)` intersect.  An `end` of `None` means the span was
/// still open at the end of the trace and extends to infinity.
pub fn span_overlaps(
    a_start: SimTime,
    a_end: Option<SimTime>,
    b_start: SimTime,
    b_end: Option<SimTime>,
) -> bool {
    let a_before_b_ends = match b_end {
        Some(be) => a_start < be,
        None => true,
    };
    let b_before_a_ends = match a_end {
        Some(ae) => b_start < ae,
        None => true,
    };
    a_before_b_ends && b_before_a_ends
}

impl FlowSpan {
    /// Overlap against another flow span.
    pub fn overlaps(&self, other: &FlowSpan) -> bool {
        span_overlaps(self.start, self.end, other.start, other.end)
    }
}

/// Reconstruct every map-attempt span in the trace, in launch order.
pub fn task_spans(trace: &Trace) -> Vec<TaskSpan> {
    let mut spans: Vec<TaskSpan> = Vec::new();
    for r in trace.records() {
        match r.event {
            TraceEvent::TaskLaunched {
                job,
                task,
                attempt,
                node,
                loc,
                speculative,
                ..
            } => spans.push(TaskSpan {
                job,
                task,
                attempt,
                node,
                loc,
                speculative,
                start: r.time,
                read_done: None,
                end: None,
                committed: false,
            }),
            TraceEvent::TaskReadDone {
                job, task, attempt, ..
            } => {
                if let Some(s) = find_open(&mut spans, job, task, attempt) {
                    s.read_done = Some(r.time);
                }
            }
            TraceEvent::TaskCommitted {
                job, task, attempt, ..
            } => {
                if let Some(s) = find_open(&mut spans, job, task, attempt) {
                    s.end = Some(r.time);
                    s.committed = true;
                }
            }
            TraceEvent::TaskAborted {
                job, task, attempt, ..
            } => {
                if let Some(s) = find_open(&mut spans, job, task, attempt) {
                    s.end = Some(r.time);
                }
            }
            _ => {}
        }
    }
    spans
}

fn find_open(spans: &mut [TaskSpan], job: u32, task: u32, attempt: u32) -> Option<&mut TaskSpan> {
    spans
        .iter_mut()
        .find(|s| s.job == job && s.task == task && s.attempt == attempt && s.end.is_none())
}

/// Reconstruct every network-flow span in the trace, in start order.
pub fn flow_spans(trace: &Trace) -> Vec<FlowSpan> {
    let mut spans: Vec<FlowSpan> = Vec::new();
    for r in trace.records() {
        match r.event {
            TraceEvent::FlowStarted {
                flow,
                kind,
                src,
                dst,
                bytes,
                ctx,
                ..
            } => spans.push(FlowSpan {
                flow,
                kind,
                src,
                dst,
                bytes,
                ctx,
                start: r.time,
                end: None,
                finished: false,
            }),
            TraceEvent::FlowFinished { flow, .. } => {
                if let Some(s) = spans.iter_mut().find(|s| s.flow == flow && s.end.is_none()) {
                    s.end = Some(r.time);
                    s.finished = true;
                }
            }
            TraceEvent::FlowCancelled { flow, .. } => {
                if let Some(s) = spans.iter_mut().find(|s| s.flow == flow && s.end.is_none()) {
                    s.end = Some(r.time);
                }
            }
            _ => {}
        }
    }
    spans
}

/// Counts returned by a successful [`Trace::validate_spans`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCheck {
    /// Task-attempt spans that opened and closed exactly once.
    pub task_spans: usize,
    /// Flow spans that opened and closed exactly once.
    pub flow_spans: usize,
}

impl Trace {
    /// Debug check that every task and flow span closes exactly once.
    ///
    /// Walks the log once and errors on the first structural violation,
    /// naming the offending record's event index (its `seq`):
    ///
    /// * a `task_read_done` / `task_committed` / `task_aborted` with no
    ///   open attempt for its `(job, task, attempt, node)` — a close
    ///   without an open, or a double close;
    /// * a `flow_finished` / `flow_cancelled` for a flow id that is not
    ///   open;
    /// * after the walk, any span still open — reported as the orphan
    ///   whose *opening* event index is smallest, so the error points at
    ///   where the leak began rather than deep inside a query helper.
    ///
    /// Speculative duplicates legitimately share an attempt number; they
    /// are tracked per `(job, task, attempt, node)` so a backup and its
    /// original are distinct spans. Note that a backup that loses the
    /// commit race on a *completed* task is torn down without its own
    /// abort event only when the engine never re-observes it, so traces
    /// from speculation-heavy or mid-crash runs can legitimately report
    /// orphans: this is a strict structural check meant for golden-style
    /// harness traces, and analysis layers should treat its failure as a
    /// warning, not a hard error.
    pub fn validate_spans(&self) -> Result<SpanCheck, String> {
        use std::collections::HashMap;
        // Open task attempts: (job, task, attempt, node) -> opening seq.
        let mut open_tasks: HashMap<(u32, u32, u32, u32), u64> = HashMap::new();
        // Open flows: flow id -> opening seq.
        let mut open_flows: HashMap<u64, u64> = HashMap::new();
        let mut check = SpanCheck::default();
        for r in self.records() {
            match r.event {
                TraceEvent::TaskLaunched {
                    job,
                    task,
                    attempt,
                    node,
                    ..
                } => {
                    if let Some(prev) = open_tasks.insert((job, task, attempt, node), r.seq) {
                        return Err(format!(
                            "event #{}: task_launched reopens span job {job} task {task} \
                             attempt {attempt} node {node} (already open since event #{prev})",
                            r.seq
                        ));
                    }
                }
                TraceEvent::TaskReadDone {
                    job,
                    task,
                    attempt,
                    node,
                } if !open_tasks.contains_key(&(job, task, attempt, node)) => {
                    return Err(format!(
                        "event #{}: task_read_done for job {job} task {task} attempt \
                         {attempt} node {node} matches no open task span",
                        r.seq
                    ));
                }
                TraceEvent::TaskCommitted {
                    job,
                    task,
                    attempt,
                    node,
                    ..
                } => {
                    if open_tasks.remove(&(job, task, attempt, node)).is_none() {
                        return Err(format!(
                            "event #{}: task_committed for job {job} task {task} attempt \
                             {attempt} node {node} closes no open task span (double close?)",
                            r.seq
                        ));
                    }
                    check.task_spans += 1;
                }
                TraceEvent::TaskAborted {
                    job,
                    task,
                    attempt,
                    node,
                } => {
                    if open_tasks.remove(&(job, task, attempt, node)).is_none() {
                        return Err(format!(
                            "event #{}: task_aborted for job {job} task {task} attempt \
                             {attempt} node {node} closes no open task span (double close?)",
                            r.seq
                        ));
                    }
                    check.task_spans += 1;
                }
                TraceEvent::FlowStarted { flow, .. } => {
                    if let Some(prev) = open_flows.insert(flow, r.seq) {
                        return Err(format!(
                            "event #{}: flow_started reopens flow {flow} (already open \
                             since event #{prev})",
                            r.seq
                        ));
                    }
                }
                TraceEvent::FlowFinished { flow, .. } | TraceEvent::FlowCancelled { flow, .. } => {
                    if open_flows.remove(&flow).is_none() {
                        return Err(format!(
                            "event #{}: {} closes no open flow {flow} (double close?)",
                            r.seq,
                            r.event.name()
                        ));
                    }
                    check.flow_spans += 1;
                }
                _ => {}
            }
        }
        // Report the earliest-opened orphan, if any.
        let first_task = open_tasks.iter().min_by_key(|(_, &seq)| seq).map(
            |(&(job, task, attempt, node), &seq)| {
                (
                    seq,
                    format!(
                        "task span job {job} task {task} attempt {attempt} node {node} \
                         (opened at event #{seq}) never closed"
                    ),
                )
            },
        );
        let first_flow = open_flows
            .iter()
            .min_by_key(|(_, &seq)| seq)
            .map(|(&flow, &seq)| {
                (
                    seq,
                    format!("flow {flow} (opened at event #{seq}) never closed"),
                )
            });
        match (first_task, first_flow) {
            (Some((ts, tmsg)), Some((fs, fmsg))) => {
                return Err(if ts <= fs { tmsg } else { fmsg });
            }
            (Some((_, msg)), None) | (None, Some((_, msg))) => return Err(msg),
            (None, None) => {}
        }
        Ok(check)
    }
}

/// First record matching `pred`, if any.
pub fn find_first(trace: &Trace, pred: impl Fn(&TraceRecord) -> bool) -> Option<&TraceRecord> {
    trace.records().iter().find(|r| pred(r))
}

/// A named predicate step for [`assert_event_order`].
pub type OrderStep<'a> = (&'a str, &'a dyn Fn(&TraceRecord) -> bool);

/// Assert that the trace contains a record matching each step, in order:
/// step `i+1` must match strictly after the record that satisfied step
/// `i`.  Panics with the failing step's name and the trace position
/// reached, so test failures say *which* milestone never happened.
///
/// Returns the matched records for follow-up assertions (e.g. exact
/// timestamps).
pub fn assert_event_order<'a>(trace: &'a Trace, steps: &[OrderStep<'_>]) -> Vec<&'a TraceRecord> {
    let mut matched = Vec::with_capacity(steps.len());
    let mut idx = 0usize;
    for (name, pred) in steps {
        let found = trace.records()[idx..].iter().position(pred);
        match found {
            Some(off) => {
                matched.push(&trace.records()[idx + off]);
                idx += off + 1;
            }
            None => panic!(
                "trace order violated: step {:?} not found after record #{idx} \
                 ({} records total; previous steps matched: {:?})",
                name,
                trace.records().len(),
                matched
                    .iter()
                    .map(|r: &&TraceRecord| (r.seq, r.event.name()))
                    .collect::<Vec<_>>()
            ),
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn demo() -> Trace {
        let mut tr = Trace::default();
        tr.record(t(0), TraceEvent::JobSubmitted { job: 0, maps: 2 });
        tr.record(
            t(5),
            TraceEvent::TaskLaunched {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
                loc: Loc::Node,
                speculative: false,
                local_read: true,
            },
        );
        tr.record(
            t(8),
            TraceEvent::FlowStarted {
                flow: 1,
                kind: FlowKind::Fetch,
                src: 0,
                dst: 2,
                bytes: 64,
                cross_rack: true,
                ctx: FlowCtx::Fetch {
                    job: 0,
                    task: 1,
                    attempt: 0,
                },
            },
        );
        tr.record(
            t(20),
            TraceEvent::TaskReadDone {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
            },
        );
        tr.record(
            t(30),
            TraceEvent::TaskCommitted {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
                dur_us: 25,
            },
        );
        tr.record(
            t(40),
            TraceEvent::FlowFinished {
                flow: 1,
                kind: FlowKind::Fetch,
                src: 0,
                dst: 2,
                bytes: 64,
                dur_us: 32,
                ctx: FlowCtx::Fetch {
                    job: 0,
                    task: 1,
                    attempt: 0,
                },
            },
        );
        tr
    }

    #[test]
    fn spans_reconstruct() {
        let trace = demo();
        let tasks = task_spans(&trace);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].start, t(5));
        assert_eq!(tasks[0].read_done, Some(t(20)));
        assert_eq!(tasks[0].end, Some(t(30)));
        assert!(tasks[0].committed);
        let flows = flow_spans(&trace);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].start, t(8));
        assert_eq!(flows[0].end, Some(t(40)));
        assert!(flows[0].finished);
    }

    #[test]
    fn validate_spans_accepts_balanced_traces() {
        let trace = demo();
        let check = trace.validate_spans().expect("demo trace is balanced");
        assert_eq!(
            check,
            SpanCheck {
                task_spans: 1,
                flow_spans: 1
            }
        );
    }

    #[test]
    fn validate_spans_reports_the_first_orphan_by_event_index() {
        // A launch that never closes: the error names its opening index.
        let mut tr = Trace::default();
        tr.record(t(0), TraceEvent::JobSubmitted { job: 0, maps: 1 });
        tr.record(
            t(5),
            TraceEvent::TaskLaunched {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
                loc: Loc::Node,
                speculative: false,
                local_read: true,
            },
        );
        let err = tr.validate_spans().unwrap_err();
        assert!(err.contains("event #1"), "orphan points at the open: {err}");
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn validate_spans_rejects_closes_without_opens() {
        // Commit with no matching launch.
        let mut tr = Trace::default();
        tr.record(
            t(1),
            TraceEvent::TaskCommitted {
                job: 0,
                task: 0,
                attempt: 0,
                node: 1,
                dur_us: 1,
            },
        );
        let err = tr.validate_spans().unwrap_err();
        assert!(err.contains("closes no open task span"), "{err}");

        // Flow finished twice: the second close is the violation.
        let mut tr = Trace::default();
        let flow = |f| TraceEvent::FlowStarted {
            flow: f,
            kind: FlowKind::Fetch,
            src: 0,
            dst: 1,
            bytes: 1,
            cross_rack: false,
            ctx: FlowCtx::Block { block: 0 },
        };
        let fin = |f| TraceEvent::FlowFinished {
            flow: f,
            kind: FlowKind::Fetch,
            src: 0,
            dst: 1,
            bytes: 1,
            dur_us: 1,
            ctx: FlowCtx::Block { block: 0 },
        };
        tr.record(t(0), flow(7));
        tr.record(t(1), fin(7));
        tr.record(t(2), fin(7));
        let err = tr.validate_spans().unwrap_err();
        assert!(err.contains("event #2"), "{err}");
        assert!(err.contains("closes no open flow"), "{err}");
    }

    #[test]
    fn overlap_semantics() {
        // Disjoint.
        assert!(!span_overlaps(t(0), Some(t(10)), t(10), Some(t(20))));
        // Touching interiors.
        assert!(span_overlaps(t(0), Some(t(11)), t(10), Some(t(20))));
        // Open end extends forever.
        assert!(span_overlaps(t(0), None, t(1_000_000), Some(t(1_000_001))));
        // Open end on the other side.
        assert!(span_overlaps(t(5), Some(t(6)), t(0), None));
    }

    #[test]
    fn event_order_matches_and_reports() {
        let trace = demo();
        let matched = assert_event_order(
            &trace,
            &[
                ("submit", &|r| {
                    matches!(r.event, TraceEvent::JobSubmitted { .. })
                }),
                ("launch", &|r| {
                    matches!(r.event, TraceEvent::TaskLaunched { .. })
                }),
                ("commit", &|r| {
                    matches!(r.event, TraceEvent::TaskCommitted { .. })
                }),
            ],
        );
        assert_eq!(matched.len(), 3);
        assert_eq!(matched[2].time, t(30));
    }

    #[test]
    #[should_panic(expected = "crash-before-submit")]
    fn event_order_panics_with_step_name() {
        let trace = demo();
        assert_event_order(
            &trace,
            &[("crash-before-submit", &|r| {
                matches!(r.event, TraceEvent::NodeCrashed { .. })
            })],
        );
    }
}
