//! Host-time spans around the benchmark's own calls into each layer.
//!
//! Every timed section goes through [`Spans`]: it always accumulates the
//! section's seconds under its name, and in a traced run it also keeps
//! the span (name, start, end, parent) in memory so the whole tree can be
//! written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open span, returned by [`Spans::begin`] and closed by [`Spans::end`].
pub struct Open {
    name: &'static str,
    start: Instant,
    slot: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    keep: bool,
    kept: Vec<Span>,
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder; `keep` retains every span for [`Spans::to_jsonl`].
    pub fn new(keep: bool) -> Self {
        Spans {
            origin: Instant::now(),
            keep,
            kept: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.keep.then(|| {
            let at = self.kept.len();
            self.kept.push(Span {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            });
            self.stack.push(at);
            at
        });
        Open { name, start, slot }
    }

    /// Close `open`, add its duration to the name's total and return the
    /// duration in seconds. Spans must close innermost first.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(open.start).as_secs_f64();
        if let Some(at) = open.slot {
            let end_ns = self.ns_since_origin(now);
            self.kept[at].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(at), "spans close innermost first");
        }
        *self.totals.entry(open.name).or_insert(0.0) += secs;
        secs
    }

    /// Time `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        let secs = self.end(open);
        (out, secs)
    }

    /// Seconds per span name since the last call, and reset.
    pub fn take_totals(&mut self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.totals)
    }

    /// The kept spans, one JSON object a line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}
