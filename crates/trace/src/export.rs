//! Trace exporters: byte-stable JSONL (and its strict reader) and Chrome
//! Trace Event JSON.
//!
//! The JSONL format is the golden-file format: one object per line, keys
//! in a fixed order, every value an integer, bool or known string — no
//! floating point, so identical runs serialize to identical bytes on
//! every platform. Its schema is the one field list
//! `TraceRecord::fields`; the writer and the reader are its two
//! visitors.
//!
//! The Chrome format follows the Trace Event spec (`"X"` complete spans
//! with `ts`/`dur` in microseconds, `"i"` instants, `"M"` metadata) and
//! loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.

use crate::event::{FieldVisitor, Label, Scalar, TraceEvent, TraceRecord};
use crate::recorder::Trace;
use dare_simcore::time::SimTime;

/// The writer: appends each field as `"key":value,`.
impl FieldVisitor for String {
    fn field<T: Scalar>(&mut self, key: &'static str, v: &mut T) -> Result<(), String> {
        self.extend(["\"", key, "\":"]);
        v.write(self);
        self.push(',');
        Ok(())
    }

    fn label<L: Label>(&mut self, key: &'static str, v: &mut L) -> Result<(), String> {
        self.extend(["\"", key, "\":\"", v.label(), "\","]);
        Ok(())
    }

    fn next_is(&mut self, _key: &'static str, current: bool) -> bool {
        current
    }
}

/// Serialize a whole trace as JSONL (one event per line, trailing newline).
///
/// Key order is fixed: `t`, `seq`, `ev`, `sub`, then the event fields in
/// declaration order.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.records().len() * 96);
    for r in trace.records() {
        out.push('{');
        let mut r = *r;
        r.fields(&mut out).expect("writing cannot fail");
        out.pop(); // the last field's comma
        out.push_str("}\n");
    }
    out
}

/// Takes one line's fields off the front, left to right.
struct Reader<'a> {
    rest: &'a str,
    sep: char,
}

impl<'a> Reader<'a> {
    /// The text after the separator and `"key":`, if the line goes on so.
    fn after_key(&self, key: &str) -> Option<&'a str> {
        let quoted = self.rest.strip_prefix(self.sep)?.strip_prefix('"')?;
        quoted.strip_prefix(key)?.strip_prefix("\":")
    }

    /// The value text of the next field, which must be `key`.
    fn value(&mut self, key: &str) -> Result<&'a str, String> {
        let rest = self
            .after_key(key)
            .ok_or_else(|| format!("expected key {key:?} at {:?}", self.rest))?;
        let (text, rest) = rest.split_at(rest.find([',', '}']).unwrap_or(rest.len()));
        (self.rest, self.sep) = (rest, ',');
        Ok(text)
    }
}

impl FieldVisitor for Reader<'_> {
    fn field<T: Scalar>(&mut self, key: &'static str, v: &mut T) -> Result<(), String> {
        let text = self.value(key)?;
        *v = T::read(text).ok_or_else(|| format!("bad {key:?} value {text:?}"))?;
        Ok(())
    }

    fn label<L: Label>(&mut self, key: &'static str, v: &mut L) -> Result<(), String> {
        let text = self.value(key)?;
        let name = text.strip_prefix('"').and_then(|t| t.strip_suffix('"'));
        *v = *L::ALL
            .iter()
            .find(|l| Some(l.label()) == name)
            .ok_or_else(|| format!("unknown {key:?} value {text}"))?;
        Ok(())
    }

    fn next_is(&mut self, key: &'static str, _current: bool) -> bool {
        self.after_key(key).is_some()
    }
}

/// Parse a JSONL export back into a [`Trace`].
///
/// Each line is read in one left-to-right pass over the same field list
/// [`to_jsonl`] writes from, so only what `to_jsonl` writes is accepted:
/// every key in schema order exactly once, `sub` matching `ev`, nothing
/// after the closing brace. Across lines `seq` must count up from 0 and
/// `t` must not decrease. Errors name the first bad line. Round-trip is
/// exact: `from_jsonl(&to_jsonl(t))` re-serializes to the same bytes.
pub fn from_jsonl(jsonl: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (i, line) in jsonl.lines().enumerate() {
        let mut r = TraceRecord {
            time: SimTime::ZERO,
            seq: 0,
            event: TraceEvent::JobFailed { job: 0 },
        };
        let mut reader = Reader {
            rest: line,
            sep: '{',
        };
        let last = trace.records().last().map_or(0, |l| l.time.as_micros());
        let checked = r.fields(&mut reader).and_then(|()| {
            let (seq, t) = (r.seq, r.time.as_micros());
            if reader.rest != "}" {
                Err(format!("{:?} where the object should end", reader.rest))
            } else if seq != i as u64 {
                Err(format!("seq {seq}, expected {i} (gap or reorder)"))
            } else if t < last {
                Err(format!("time {t}us goes backwards (previous {last}us)"))
            } else {
                Ok(())
            }
        });
        checked.map_err(|e| format!("line {}: {e}", i + 1))?;
        trace.record(r.time, r.event);
    }
    Ok(trace)
}

/// Serialize a trace in Chrome Trace Event format, openable in Perfetto.
///
/// Layout: pid 1 = job spans (one row per job), pid 2 = task attempts
/// (one row per node), pid 3 = network flows (one row per destination
/// node), pid 4 = instant events (replication decisions, faults) keyed by
/// node.  Unclosed spans (attempts still running or flows cancelled) are
/// closed at the last event time so Perfetto renders them.
pub fn to_chrome(trace: &Trace) -> String {
    use std::collections::HashMap;

    let end_us = trace
        .records()
        .last()
        .map(|r| r.time.as_micros())
        .unwrap_or(0);

    struct ChromeOut {
        buf: String,
        first: bool,
    }
    impl ChromeOut {
        fn emit(&mut self, line: String) {
            if !std::mem::take(&mut self.first) {
                self.buf.push_str(",\n");
            }
            self.buf.push_str(&line);
        }
        fn span(&mut self, pid: u32, tid: u32, name: &str, ts: u64, dur: u64) {
            self.emit(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"ts\":{ts},\"dur\":{dur}}}"
            ));
        }
        fn instant(&mut self, tid: u32, name: &str, ts: u64, scope: char) {
            self.emit(format!(
                "{{\"ph\":\"i\",\"pid\":4,\"tid\":{tid},\"name\":\"{name}\",\"ts\":{ts},\"s\":\"{scope}\"}}"
            ));
        }
    }

    let mut out = ChromeOut {
        buf: String::with_capacity(trace.records().len() * 128 + 1024),
        first: true,
    };
    out.buf
        .push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");

    for (pid, name) in [
        (1u32, "jobs"),
        (2, "tasks (by node)"),
        (3, "network flows (by dst)"),
        (4, "cluster events (by node)"),
    ] {
        out.emit(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    // Open-span bookkeeping.
    let mut job_start: HashMap<u32, u64> = HashMap::new();
    let mut task_start: HashMap<(u32, u32, u32), (u64, u32)> = HashMap::new();
    let mut flow_start: HashMap<u64, (u64, String, u32)> = HashMap::new();

    for r in trace.records() {
        let ts = r.time.as_micros();
        match r.event {
            TraceEvent::JobSubmitted { job, .. } => {
                job_start.insert(job, ts);
            }
            TraceEvent::JobCompleted { job, dur_us } => {
                let start = ts.saturating_sub(dur_us);
                out.span(1, job, &format!("job {job}"), start, dur_us);
                job_start.remove(&job);
            }
            TraceEvent::JobFailed { job } => {
                if let Some(start) = job_start.remove(&job) {
                    out.span(
                        1,
                        job,
                        &format!("job {job} (failed)"),
                        start,
                        ts.saturating_sub(start),
                    );
                }
            }
            TraceEvent::TaskLaunched {
                job,
                task,
                attempt,
                node,
                ..
            } => {
                task_start.insert((job, task, attempt), (ts, node));
            }
            TraceEvent::TaskCommitted {
                job,
                task,
                attempt,
                node,
                dur_us,
            } => {
                let start = ts.saturating_sub(dur_us);
                out.span(
                    2,
                    node,
                    &format!("j{job}/t{task}#a{attempt}"),
                    start,
                    dur_us,
                );
                task_start.remove(&(job, task, attempt));
            }
            TraceEvent::TaskAborted {
                job,
                task,
                attempt,
                node,
            } => {
                if let Some((start, _)) = task_start.remove(&(job, task, attempt)) {
                    out.span(
                        2,
                        node,
                        &format!("j{job}/t{task}#a{attempt} (aborted)"),
                        start,
                        ts.saturating_sub(start),
                    );
                }
            }
            TraceEvent::FlowStarted {
                flow,
                kind,
                src,
                dst,
                bytes,
                ..
            } => {
                flow_start.insert(
                    flow,
                    (ts, format!("{} {src}->{dst} {bytes}B", kind.name()), dst),
                );
            }
            TraceEvent::FlowFinished {
                flow, dst, dur_us, ..
            } => {
                if let Some((start, name, _)) = flow_start.remove(&flow) {
                    let start = start.min(ts.saturating_sub(dur_us));
                    out.span(3, dst, &name, start, ts.saturating_sub(start));
                }
            }
            TraceEvent::FlowCancelled { flow, .. } => {
                if let Some((start, name, dst)) = flow_start.remove(&flow) {
                    out.span(
                        3,
                        dst,
                        &format!("{name} (cancelled)"),
                        start,
                        ts.saturating_sub(start),
                    );
                }
            }
            TraceEvent::DelaySkip { job, node, .. } => {
                out.instant(node, &format!("delay skip j{job}"), ts, 't');
            }
            TraceEvent::ReplicaDecision {
                node,
                block,
                replicate,
                ..
            } => {
                let verdict = if replicate { "replicate" } else { "skip" };
                out.instant(node, &format!("{verdict} b{block}"), ts, 't');
            }
            TraceEvent::ReplicaCommitted { node, block } => {
                out.instant(node, &format!("replica b{block}"), ts, 't');
            }
            TraceEvent::ReplicaEvicted { node, block } => {
                out.instant(node, &format!("evict b{block}"), ts, 't');
            }
            TraceEvent::NodeCrashed { node, .. } => {
                out.instant(node, &format!("CRASH n{node}"), ts, 'g');
            }
            TraceEvent::NodeDeclaredDead { node, .. } => {
                out.instant(node, &format!("DEAD n{node}"), ts, 'g');
            }
            TraceEvent::NodeRejoined { node, .. } => {
                out.instant(node, &format!("REJOIN n{node}"), ts, 'g');
            }
            TraceEvent::ChecksumFailed { node, block, .. } => {
                out.instant(node, &format!("CKSUM b{block}"), ts, 'g');
            }
            TraceEvent::ReplicaQuarantined { node, block, .. } => {
                out.instant(node, &format!("quarantine b{block}"), ts, 't');
            }
            TraceEvent::ScrubComplete { node, found, .. } => {
                out.instant(node, &format!("scrub n{node} ({found} bad)"), ts, 't');
            }
            _ => {}
        }
    }

    // Close anything still open at the end of the trace.
    type OpenTask = ((u32, u32, u32), (u64, u32));
    let mut leftover_tasks: Vec<OpenTask> = task_start.into_iter().collect();
    leftover_tasks.sort();
    for ((job, task, attempt), (start, node)) in leftover_tasks {
        out.span(
            2,
            node,
            &format!("j{job}/t{task}#a{attempt} (unfinished)"),
            start,
            end_us.saturating_sub(start),
        );
    }
    let mut leftover_flows: Vec<(u64, (u64, String, u32))> = flow_start.into_iter().collect();
    leftover_flows.sort_by_key(|(id, _)| *id);
    for (_, (start, name, dst)) in leftover_flows {
        out.span(
            3,
            dst,
            &format!("{name} (unfinished)"),
            start,
            end_us.saturating_sub(start),
        );
    }
    let mut leftover_jobs: Vec<(u32, u64)> = job_start.into_iter().collect();
    leftover_jobs.sort();
    for (job, start) in leftover_jobs {
        out.span(
            1,
            job,
            &format!("job {job} (unfinished)"),
            start,
            end_us.saturating_sub(start),
        );
    }

    out.buf.push_str("\n]}\n");
    out.buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlowCtx, FlowKind, Loc, Scalar};

    fn sample_trace() -> Trace {
        let mut tr = Trace::default();
        tr.record(
            SimTime::from_micros(0),
            TraceEvent::JobSubmitted { job: 0, maps: 1 },
        );
        tr.record(
            SimTime::from_micros(10),
            TraceEvent::TaskLaunched {
                job: 0,
                task: 0,
                attempt: 0,
                node: 2,
                loc: Loc::Rack,
                speculative: false,
                local_read: false,
            },
        );
        tr.record(
            SimTime::from_micros(4010),
            TraceEvent::TaskCommitted {
                job: 0,
                task: 0,
                attempt: 0,
                node: 2,
                dur_us: 4000,
            },
        );
        tr.record(
            SimTime::from_micros(4020),
            TraceEvent::JobCompleted {
                job: 0,
                dur_us: 4020,
            },
        );
        tr
    }

    #[test]
    fn jsonl_round_trips_the_schema() {
        let j = to_jsonl(&sample_trace());
        assert_eq!(j.lines().count(), 4);
        assert!(j.starts_with(
            "{\"t\":0,\"seq\":0,\"ev\":\"job_submitted\",\"sub\":\"sched\",\"job\":0,\"maps\":1}\n\
             {\"t\":10,\"seq\":1,\"ev\":\"task_launched\",\"sub\":\"sched\",\"job\":0,\"task\":0,\
             \"attempt\":0,\"node\":2,\"loc\":\"rack\",\"spec\":false,\"local_read\":false}\n"
        ));
        from_jsonl(&j).expect("schema-valid");
    }

    #[test]
    fn validator_rejects_corruption() {
        let j = to_jsonl(&sample_trace());
        // Drop a line: seq gap.
        let dropped: String = j
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert!(from_jsonl(&dropped).unwrap_err().contains("seq"));
        // Unknown event name.
        let bad = j.replace("job_submitted", "job_teleported");
        assert!(from_jsonl(&bad)
            .unwrap_err()
            .contains("unknown \"ev\" value \"job_teleported\""));
        // Time going backwards.
        let back = j.replace("{\"t\":4020,", "{\"t\":1,");
        assert!(from_jsonl(&back).unwrap_err().contains("backwards"));
        // Blank line.
        assert!(from_jsonl(&j.replacen('\n', "\n\n", 1))
            .unwrap_err()
            .starts_with("line 2:"));
    }

    #[test]
    fn from_jsonl_round_trips_exactly() {
        let trace = sample_trace();
        let j = to_jsonl(&trace);
        let rebuilt = from_jsonl(&j).expect("parses");
        assert_eq!(rebuilt.records(), trace.records());
        assert_eq!(rebuilt.counters(), trace.counters());
        assert_eq!(rebuilt.summary(), trace.summary());
        assert_eq!(to_jsonl(&rebuilt), j, "re-serialization is byte-identical");
        // Malformed input is rejected with a line number.
        let bad = j.replace("\"maps\":1", "\"maps\":x");
        assert!(from_jsonl(&bad).unwrap_err().contains("line 1"));
        assert!(from_jsonl("{\"t\":0,\"seq\":0,\"ev\":\"job_teleported\"}\n").is_err());
    }

    /// Lines `to_jsonl` never writes must not decode: each would
    /// re-serialize to different bytes.
    #[test]
    fn from_jsonl_rejects_what_to_jsonl_never_writes() {
        let head = "{\"t\":0,\"seq\":0,";
        let flow = "\"ev\":\"flow_started\",\"sub\":\"net\",\"flow\":1,\"kind\":\"fetch\",\
                    \"src\":1,\"dst\":2,\"bytes\":9,\"cross_rack\":false";
        let cases = [
            (
                "wrong sub",
                "\"ev\":\"job_failed\",\"sub\":\"net\",\"job\":1}".to_string(),
            ),
            (
                "keys out of order",
                "\"ev\":\"job_submitted\",\"sub\":\"sched\",\"maps\":2,\"job\":1}".to_string(),
            ),
            (
                "duplicated key",
                "\"ev\":\"job_failed\",\"sub\":\"sched\",\"job\":1,\"job\":2}".to_string(),
            ),
            (
                "unknown extra key",
                "\"ev\":\"job_failed\",\"sub\":\"sched\",\"job\":1,\"why\":0}".to_string(),
            ),
            (
                "bytes after the object",
                "\"ev\":\"job_failed\",\"sub\":\"sched\",\"job\":1}}".to_string(),
            ),
            (
                "fetch flow with a block",
                format!("{flow},\"job\":1,\"task\":2,\"attempt\":0,\"block\":5}}"),
            ),
        ];
        for (what, body) in cases {
            let line = format!("{head}{body}\n");
            match from_jsonl(&line) {
                Ok(t) => panic!("{what}: accepted, re-serializes as {}", to_jsonl(&t)),
                Err(e) => assert!(e.contains("line 1"), "{what}: {e}"),
            }
        }
        // Integers spelled other than the way `Display` writes them, or
        // out of the field's range.
        for n in ["01", "+1", "", "-0", "4294967296"] {
            let line = format!("{head}\"ev\":\"job_failed\",\"sub\":\"sched\",\"job\":{n}}}\n");
            let err = format!("line 1: bad \"job\" value {n:?}");
            assert_eq!(from_jsonl(&line).unwrap_err(), err);
        }
        // The same flow without the stray key is what `to_jsonl` writes.
        let ok = format!("{head}{flow},\"job\":1,\"task\":2,\"attempt\":0}}\n");
        assert_eq!(to_jsonl(&from_jsonl(&ok).expect("valid")), ok);
    }

    /// The reader before the digit scanner: `parse`, then a filter on
    /// the spellings `parse` takes beyond what `Display` writes.
    fn parse_canonical<T: std::str::FromStr>(text: &str) -> Option<T> {
        let canonical = !text.starts_with('+') && (text.len() == 1 || !text.starts_with('0'));
        text.parse().ok().filter(|_| canonical)
    }

    fn assert_scalar<T>(v: T)
    where
        T: Scalar + std::fmt::Display + std::str::FromStr + PartialEq + std::fmt::Debug,
    {
        let text = v.to_string();
        let mut written = String::new();
        v.write(&mut written);
        assert_eq!(written, text);
        assert_eq!(T::read(&text), Some(v), "{text}");
    }

    /// Integer and bool fields, differentially: the writer spells what
    /// `Display` spells, and the reader accepts exactly what
    /// [`parse_canonical`] accepts.
    #[test]
    fn scalar_fields_match_display_and_parse() {
        let mut rng = dare_simcore::DetRng::new(23);
        for _ in 0..20_000 {
            let x = rng.next_u64() >> (rng.next_u64() % 64);
            assert_scalar(x);
            assert_scalar(x as u32);
        }
        for v in [0, 1, u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX] {
            assert_scalar(v);
        }
        assert_scalar(true);
        assert_scalar(false);

        let edges = "0 00 01 1 10 +1 +0 -0 -1 + - 1e3 0x1 true false True 1true \
                     4294967295 4294967296 18446744073709551615 18446744073709551616";
        let mut texts: Vec<String> = ["", " 1", "1 "].map(String::from).into();
        texts.extend(edges.split(' ').map(String::from));
        const ALPHABET: &[u8] = b"0123456789+-";
        for _ in 0..20_000 {
            let len = rng.index(22);
            let text = (0..len)
                .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
                .collect();
            texts.push(text);
        }
        for t in &texts {
            assert_eq!(u64::read(t), parse_canonical::<u64>(t), "u64 {t:?}");
            assert_eq!(u32::read(t), parse_canonical::<u32>(t), "u32 {t:?}");
            assert_eq!(bool::read(t), parse_canonical::<bool>(t), "bool {t:?}");
        }
    }

    /// One record of every event kind, with both flow contexts.
    fn every_event_kind() -> Trace {
        let evs = [
            TraceEvent::JobSubmitted { job: 1, maps: 2 },
            TraceEvent::TaskLaunched {
                job: 1,
                task: 0,
                attempt: 0,
                node: 3,
                loc: Loc::Remote,
                speculative: true,
                local_read: false,
            },
            TraceEvent::FlowStarted {
                flow: 8,
                kind: FlowKind::Fetch,
                src: 4,
                dst: 3,
                bytes: 1024,
                cross_rack: false,
                ctx: FlowCtx::Fetch {
                    job: 1,
                    task: 0,
                    attempt: 0,
                },
            },
            TraceEvent::TaskReadDone {
                job: 1,
                task: 0,
                attempt: 0,
                node: 3,
            },
            TraceEvent::TaskCommitted {
                job: 1,
                task: 0,
                attempt: 0,
                node: 3,
                dur_us: 40,
            },
            TraceEvent::FlowStarted {
                flow: 9,
                kind: FlowKind::Recovery,
                src: 1,
                dst: 2,
                bytes: 4096,
                cross_rack: true,
                ctx: FlowCtx::Block { block: 17 },
            },
            TraceEvent::FlowFinished {
                flow: 9,
                kind: FlowKind::Recovery,
                src: 1,
                dst: 2,
                bytes: 4096,
                dur_us: 55,
                ctx: FlowCtx::Block { block: 17 },
            },
            TraceEvent::FlowCancelled {
                flow: 10,
                kind: FlowKind::Proactive,
            },
            TraceEvent::DelaySkip {
                job: 1,
                node: 4,
                skips: 2,
                offered: Loc::Rack,
            },
            TraceEvent::TaskAborted {
                job: 1,
                task: 0,
                attempt: 0,
                node: 3,
            },
            TraceEvent::TaskRequeued {
                job: 1,
                task: 0,
                attempt: 1,
            },
            TraceEvent::ReplicaDecision {
                node: 2,
                block: 5,
                replicate: false,
                evictions: 0,
            },
            TraceEvent::ReplicaCommitted { node: 2, block: 6 },
            TraceEvent::ReplicaEvicted { node: 2, block: 6 },
            TraceEvent::NodeCrashed {
                node: 7,
                permanent: false,
            },
            TraceEvent::NodeDeclaredDead {
                node: 7,
                under_replicated: 3,
            },
            TraceEvent::NodeRejoined {
                node: 7,
                restored: 4,
            },
            TraceEvent::BlockLost { block: 11 },
            TraceEvent::RecoveryQueued {
                block: 5,
                visible: 1,
            },
            TraceEvent::ReplicaCorrupted {
                node: 2,
                block: 5,
                dynamic: true,
            },
            TraceEvent::ChecksumFailed {
                node: 2,
                block: 5,
                job: 1,
                task: 0,
                attempt: 1,
            },
            TraceEvent::ReplicaQuarantined {
                node: 2,
                block: 5,
                dynamic: false,
            },
            TraceEvent::ScrubComplete {
                node: 2,
                bytes: 1 << 20,
                found: 1,
            },
            TraceEvent::RepairCommit {
                block: 5,
                node: 3,
                wait_us: 777,
            },
            TraceEvent::JobCompleted { job: 2, dur_us: 90 },
            TraceEvent::JobFailed { job: 1 },
        ];
        // A new variant stops compiling here until it gets a case above.
        for ev in &evs {
            match ev {
                TraceEvent::JobSubmitted { .. }
                | TraceEvent::JobCompleted { .. }
                | TraceEvent::JobFailed { .. }
                | TraceEvent::TaskLaunched { .. }
                | TraceEvent::TaskReadDone { .. }
                | TraceEvent::TaskCommitted { .. }
                | TraceEvent::TaskAborted { .. }
                | TraceEvent::TaskRequeued { .. }
                | TraceEvent::DelaySkip { .. }
                | TraceEvent::FlowStarted { .. }
                | TraceEvent::FlowFinished { .. }
                | TraceEvent::FlowCancelled { .. }
                | TraceEvent::ReplicaDecision { .. }
                | TraceEvent::ReplicaCommitted { .. }
                | TraceEvent::ReplicaEvicted { .. }
                | TraceEvent::NodeCrashed { .. }
                | TraceEvent::NodeRejoined { .. }
                | TraceEvent::NodeDeclaredDead { .. }
                | TraceEvent::BlockLost { .. }
                | TraceEvent::RecoveryQueued { .. }
                | TraceEvent::ReplicaCorrupted { .. }
                | TraceEvent::ChecksumFailed { .. }
                | TraceEvent::ReplicaQuarantined { .. }
                | TraceEvent::ScrubComplete { .. }
                | TraceEvent::RepairCommit { .. } => {}
            }
        }
        for kind in <TraceEvent as Label>::ALL {
            assert!(
                evs.iter().any(|e| e.name() == kind.name()),
                "no round-trip case for {}",
                kind.name()
            );
        }
        let mut tr = Trace::default();
        for (i, ev) in evs.into_iter().enumerate() {
            tr.record(SimTime::from_micros(i as u64 * 10), ev);
        }
        tr
    }

    #[test]
    fn from_jsonl_round_trips_every_event_kind() {
        let tr = every_event_kind();
        let j = to_jsonl(&tr);
        let rebuilt = from_jsonl(&j).expect("parses");
        assert_eq!(rebuilt.records(), tr.records());
        assert_eq!(to_jsonl(&rebuilt), j);
    }

    /// Every one-byte edit of any event's line either fails to parse or
    /// parses to a record that `to_jsonl` writes as exactly the edited
    /// line.
    #[test]
    fn one_byte_edits_parse_only_as_what_to_jsonl_writes() {
        for r in every_event_kind().records() {
            let mut one = Trace::default();
            one.record(r.time, r.event);
            let line = to_jsonl(&one);
            // The newline is left alone: `lines()` forgives a missing one.
            for i in 0..line.len() - 1 {
                let doubled = line[i..=i].repeat(2);
                for edit in ["", &doubled, "0", "9", ",", "\"", "}", ":", "a"] {
                    let edited = format!("{}{edit}{}", &line[..i], &line[i + 1..]);
                    if let Ok(t) = from_jsonl(&edited) {
                        assert_eq!(to_jsonl(&t), edited, "accepted an edit of {line}");
                    }
                }
            }
        }
    }

    #[test]
    fn chrome_export_has_spans_and_balances_braces() {
        let c = to_chrome(&sample_trace());
        assert!(c.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(c.contains("\"ph\":\"X\""));
        assert!(c.contains("job 0"));
        assert!(c.contains("j0/t0#a0"));
        let open = c.chars().filter(|&ch| ch == '{').count();
        let close = c.chars().filter(|&ch| ch == '}').count();
        assert_eq!(open, close, "balanced braces");
        let opens = c.chars().filter(|&ch| ch == '[').count();
        let closes = c.chars().filter(|&ch| ch == ']').count();
        assert_eq!(opens, closes, "balanced brackets");
    }
}
