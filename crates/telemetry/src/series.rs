//! The telemetry time-series, its cluster-row writer and its exporters.
//!
//! A [`Telemetry`] holds three aligned series sampled at the same ticks:
//! the cluster-level rows, whose columns the sampler names as it writes
//! them ([`Telemetry::put`]), a per-node breakdown ([`NodeSample`]) and a
//! per-job breakdown ([`JobSample`]). Each series has one field list (the
//! cluster `columns`, `NodeSample::fields`, `JobSample::fields`) and the
//! CSV and JSONL writers all walk it. Exports are byte-stable: integers
//! and six-fixed-decimal floats only, fixed column/key order, `\n` line
//! endings — two identical runs serialize identically, which is what the
//! determinism tests pin.

use dare_simcore::json;
use dare_simcore::numfmt::{push_fixed6, push_u64};
use dare_simcore::quantile::P2Quantile;
use std::fmt::Write as _;

/// One sampled cluster cell: integer or fixed-format float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer cell.
    U64(u64),
    /// Float cell, written with six fixed decimals.
    F64(f64),
}

impl Value {
    /// The float view of the cell (for summaries and derived figures).
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::U64(v) => *v as f64,
            Value::F64(v) => *v,
        }
    }
}

/// One sampled row of the cluster series.
#[derive(Debug, Clone)]
pub struct Row {
    /// Sample time, microseconds of simulated time.
    pub t_us: u64,
    /// Cells in column order, excluding `t_us`.
    pub cells: Vec<Value>,
}

/// One written field: a number, or a label (quoted in JSONL).
#[derive(Clone, Copy)]
enum Cell<'a> {
    Num(Value),
    Label(&'a str),
}

impl Cell<'_> {
    fn write(self, out: &mut String, quote: bool) {
        match self {
            Cell::Num(Value::U64(v)) => push_u64(out, v),
            Cell::Num(Value::F64(v)) => push_fixed6(out, v),
            Cell::Label(l) if quote => out.extend(["\"", l, "\""]),
            Cell::Label(l) => out.push_str(l),
        }
    }
}

fn int(v: impl Into<u64>) -> Cell<'static> {
    Cell::Num(Value::U64(v.into()))
}

/// The leading key of every row of every series.
const T_US: &str = "t_us";

/// Append one row and its `\n`: CSV values joined by commas, or with a
/// `kind` a flat JSONL object `{"kind":kind,"key":value,...}`.
fn write_row<'a>(
    out: &mut String,
    kind: Option<&str>,
    fields: impl IntoIterator<Item = (&'a str, Cell<'a>)>,
) {
    if let Some(kind) = kind {
        out.extend(["{\"kind\":\"", kind, "\""]);
    }
    for (i, (key, cell)) in fields.into_iter().enumerate() {
        if kind.is_some() {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
        } else if i > 0 {
            out.push(',');
        }
        cell.write(out, kind.is_some());
    }
    out.push_str(if kind.is_some() { "}\n" } else { "\n" });
}

/// A CSV document: the `keys` header, then one line per row.
fn csv<'a, F>(keys: impl Iterator<Item = &'a str>, rows: impl Iterator<Item = F>) -> String
where
    F: IntoIterator<Item = (&'a str, Cell<'a>)>,
{
    let mut s = String::new();
    write_row(&mut s, None, keys.map(|k| (k, Cell::Label(k))));
    for row in rows {
        write_row(&mut s, None, row);
    }
    s
}

/// The samples of one windowed cluster column since the last tick: what
/// [`Telemetry::put_window`] writes, their count, maximum and streaming
/// (P²) median.
#[derive(Debug, Clone)]
pub struct Window {
    n: u64,
    max: f64,
    p50: P2Quantile,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            n: 0,
            max: f64::NEG_INFINITY,
            p50: P2Quantile::new(0.5),
        }
    }
}

impl Window {
    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.max = self.max.max(x);
        self.p50.push(x);
    }
}

/// Lifecycle phase of a job at a sampling tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobPhase {
    /// Arrived, maps or reduces still outstanding.
    #[default]
    Running,
    /// All maps and reduces committed.
    Done,
    /// Abandoned after a task exhausted its retry budget.
    Failed,
}

impl JobPhase {
    /// Stable textual form used by CSV and JSONL.
    pub fn label(&self) -> &'static str {
        match self {
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
        }
    }
}

/// Per-node snapshot at one sampling tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeSample {
    /// Sample time, microseconds of simulated time.
    pub t_us: u64,
    /// Node index.
    pub node: u32,
    /// Actually serving work (neither silently crashed nor declared dead).
    pub alive: bool,
    /// Advertising slots from the master's view (not declared dead; a
    /// silently crashed node still advertises until the timeout fires).
    pub advertised: bool,
    /// Occupied map slots (master's view).
    pub map_used: u32,
    /// Advertised map-slot capacity (0 once declared dead).
    pub map_total: u32,
    /// Occupied reduce slots.
    pub reduce_used: u32,
    /// Advertised reduce-slot capacity.
    pub reduce_total: u32,
    /// Dynamic replicas physically held.
    pub dynamic_blocks: u64,
    /// Bytes of dynamic replicas physically held.
    pub dynamic_bytes: u64,
    /// NIC transmit utilization ∈ [0, 1] across active flows.
    pub tx_util: f64,
    /// NIC receive utilization ∈ [0, 1] across active flows.
    pub rx_util: f64,
}

/// Per-job snapshot at one sampling tick. Emitted for every in-flight job
/// at each tick, plus one terminal row per job at the final sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobSample {
    /// Sample time, microseconds of simulated time.
    pub t_us: u64,
    /// Job index.
    pub job: u32,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Map tasks in the job.
    pub maps_total: u32,
    /// Maps committed so far.
    pub maps_done: u32,
    /// Committed maps that ran node-local.
    pub node_local: u32,
    /// Committed maps that ran rack-local.
    pub rack_local: u32,
    /// Committed maps that read remotely.
    pub remote: u32,
    /// Reduce tasks committed so far.
    pub reduces_done: u32,
}

impl NodeSample {
    /// The node series' field list: CSV columns and JSONL keys, in order.
    fn fields(&self) -> [(&'static str, Cell<'static>); 12] {
        [
            (T_US, int(self.t_us)),
            ("node", int(self.node)),
            ("alive", int(self.alive)),
            ("advertised", int(self.advertised)),
            ("map_used", int(self.map_used)),
            ("map_total", int(self.map_total)),
            ("reduce_used", int(self.reduce_used)),
            ("reduce_total", int(self.reduce_total)),
            ("dynamic_blocks", int(self.dynamic_blocks)),
            ("dynamic_bytes", int(self.dynamic_bytes)),
            ("tx_util", Cell::Num(Value::F64(self.tx_util))),
            ("rx_util", Cell::Num(Value::F64(self.rx_util))),
        ]
    }
}

impl JobSample {
    /// The job series' field list: CSV columns and JSONL keys, in order.
    fn fields(&self) -> [(&'static str, Cell<'static>); 9] {
        [
            (T_US, int(self.t_us)),
            ("job", int(self.job)),
            ("phase", Cell::Label(self.phase.label())),
            ("maps_total", int(self.maps_total)),
            ("maps_done", int(self.maps_done)),
            ("node_local", int(self.node_local)),
            ("rack_local", int(self.rack_local)),
            ("remote", int(self.remote)),
            ("reduces_done", int(self.reduces_done)),
        ]
    }
}

/// The time-series a telemetry-enabled run attaches to its `SimResult`,
/// written tick by tick by the engine's sampler.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Sampling interval, microseconds.
    pub interval_us: u64,
    /// Cluster-series column names (excluding the leading `t_us`).
    pub columns: Vec<String>,
    /// Cluster-level rows, one per tick, cells in `columns` order.
    pub cluster: Vec<Row>,
    /// Per-node breakdown (nodes × ticks, node-major within a tick).
    pub nodes: Vec<NodeSample>,
    /// Per-job breakdown (in-flight jobs per tick + terminal rows).
    pub jobs: Vec<JobSample>,
}

impl Telemetry {
    /// Open the cluster row of the tick at `t_us`. Its cells follow in
    /// column order through [`Telemetry::put`] and [`Telemetry::put_window`].
    pub fn push_row(&mut self, t_us: u64) {
        debug_assert!(
            self.cluster
                .last()
                .is_none_or(|r| r.cells.len() == self.columns.len()),
            "cluster row at t_us {t_us}: the previous row missed columns"
        );
        self.cluster.push(Row {
            t_us,
            cells: Vec::with_capacity(self.columns.len()),
        });
    }

    /// Append column `name` to the open cluster row. The first row records
    /// the name, later rows repeat it in place (debug builds check both).
    pub fn put(&mut self, name: &str, v: Value) {
        self.cell(name, "", v);
    }

    /// Append the window `w` as `{name}_p50`, `{name}_max` and `{name}_n`
    /// (an empty window writes 0 for all three), then reset it for the
    /// next tick.
    pub fn put_window(&mut self, name: &str, w: &mut Window) {
        let w = std::mem::take(w);
        let (p50, max) = if w.n == 0 {
            (0.0, 0.0)
        } else {
            (w.p50.estimate(), w.max)
        };
        self.cell(name, "_p50", Value::F64(p50));
        self.cell(name, "_max", Value::F64(max));
        self.cell(name, "_n", Value::U64(w.n));
    }

    fn cell(&mut self, name: &str, suffix: &str, v: Value) {
        let first = self.cluster.len() == 1;
        let row = self
            .cluster
            .last_mut()
            .expect("push_row opens a cluster row");
        if first {
            let col = format!("{name}{suffix}");
            debug_assert!(
                !self.columns.contains(&col),
                "cluster column {col} written twice"
            );
            self.columns.push(col);
        } else {
            let expect = self.columns.get(row.cells.len());
            debug_assert!(
                expect.and_then(|c| c.strip_suffix(suffix)) == Some(name),
                "cluster column {name}{suffix} drifted from {expect:?} at t_us {}",
                row.t_us
            );
        }
        row.cells.push(v);
    }

    /// Number of sampling ticks recorded.
    pub fn ticks(&self) -> usize {
        self.cluster.len()
    }

    /// Index of a cluster-series column, if present.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The value of cluster column `name` at tick `i`.
    pub fn value(&self, i: usize, name: &str) -> Option<Value> {
        let c = self.column(name)?;
        Some(self.cluster.get(i)?.cells[c])
    }

    /// The cluster series' field list for one row: `t_us`, then `columns`.
    fn cluster_fields<'a>(&'a self, row: &'a Row) -> impl Iterator<Item = (&'a str, Cell<'a>)> {
        let cells = self.columns.iter().zip(&row.cells);
        std::iter::once((T_US, int(row.t_us)))
            .chain(cells.map(|(c, v)| (c.as_str(), Cell::Num(*v))))
    }

    /// The cluster-level series as CSV (header + one row per tick).
    pub fn cluster_csv(&self) -> String {
        let keys = std::iter::once(T_US).chain(self.columns.iter().map(String::as_str));
        csv(
            keys,
            self.cluster.iter().map(|row| self.cluster_fields(row)),
        )
    }

    /// The per-node breakdown as CSV.
    pub fn nodes_csv(&self) -> String {
        let keys = NodeSample::default().fields().map(|(k, _)| k);
        csv(keys.into_iter(), self.nodes.iter().map(NodeSample::fields))
    }

    /// The per-job breakdown as CSV.
    pub fn jobs_csv(&self) -> String {
        let keys = JobSample::default().fields().map(|(k, _)| k);
        csv(keys.into_iter(), self.jobs.iter().map(JobSample::fields))
    }

    /// All three series as JSONL: one object per line, `kind` ∈
    /// `cluster` | `node` | `job`, fixed key order, cluster rows first.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for row in &self.cluster {
            write_row(&mut s, Some("cluster"), self.cluster_fields(row));
        }
        for n in &self.nodes {
            write_row(&mut s, Some("node"), n.fields());
        }
        for j in &self.jobs {
            write_row(&mut s, Some("job"), j.fields());
        }
        s
    }

    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} ticks @ {:.0}s ({} cluster cols, {} node rows, {} job rows)",
            self.ticks(),
            self.interval_us as f64 / 1e6,
            self.columns.len(),
            self.nodes.len(),
            self.jobs.len(),
        )
    }

    /// A fixed-width terminal table over up to `max_rows` evenly spaced
    /// ticks of the headline cluster columns (what `dare-sim --telemetry`
    /// prints).
    pub fn summary_table(&self, max_rows: usize) -> String {
        // (header, width, cluster column) of each column after `t_s`.
        const COLS: [(&str, usize, &str); 6] = [
            ("slots", 10, "map_slots_used"),
            ("pending", 9, "pending_tasks"),
            ("locality", 9, "locality_rate"),
            ("replicas", 9, "dynamic_replicas"),
            ("underrep", 9, "under_replicated"),
            ("max_util", 9, "link_util_max"),
        ];
        let mut s = format!("{:>8}", "t_s");
        for (head, w, _) in COLS {
            let _ = write!(s, " {head:>w$}");
        }
        s.push('\n');
        if self.cluster.is_empty() || max_rows == 0 {
            return s;
        }
        let n = self.cluster.len();
        let step = n.div_ceil(max_rows).max(1);
        let mut picks: Vec<usize> = (0..n).step_by(step).collect();
        if *picks.last().unwrap() != n - 1 {
            picks.push(n - 1);
        }
        for i in picks {
            let _ = write!(s, "{:>8.0}", self.cluster[i].t_us as f64 / 1e6);
            for (_, w, name) in COLS {
                let _ = match self.value(i, name).unwrap_or(Value::U64(0)) {
                    Value::U64(v) => write!(s, " {v:>w$}"),
                    Value::F64(v) => write!(s, " {v:>w$.3}"),
                };
            }
            s.push('\n');
        }
        s
    }
}

/// Validate a telemetry JSONL export against the schema: every line is a
/// flat object whose first key is `kind` (one of `cluster`/`node`/`job`)
/// followed by `t_us`; all lines of one kind share an identical key
/// sequence; `t_us` is non-decreasing within each kind; values are
/// unquoted numbers except `phase`, which is one of the job-phase labels.
pub fn validate_jsonl(jsonl: &str) -> Result<(), String> {
    // Per kind: the key sequence of its first line and the last `t_us`.
    let mut seen: std::collections::HashMap<String, (Vec<String>, u64)> = Default::default();
    for (lineno, line) in jsonl.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let row = json::parse(line).map_err(at)?;
        let fields = row.as_obj("row").map_err(at)?;
        let keys: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
        if keys.len() < 2 || keys[..2] != ["kind", "t_us"] {
            return Err(at("the first keys must be \"kind\" and \"t_us\"".into()));
        }
        let kind = fields[0].1.as_str("kind").map_err(at)?;
        if !["cluster", "node", "job"].contains(&kind) {
            return Err(at(format!("unknown kind {kind:?}")));
        }
        let t = fields[1].1.as_u64("t_us").map_err(at)?;
        for (key, value) in &fields[2..] {
            let ok = match key.as_str() {
                "phase" => matches!(value.as_str(key), Ok("running" | "done" | "failed")),
                _ => value.as_f64(key).is_ok(),
            };
            if !ok {
                return Err(at(format!("bad value for {key:?}")));
            }
        }
        let (expect, last_t) = seen
            .entry(kind.to_string())
            .or_insert_with(|| (keys.clone(), t));
        if t < *last_t {
            return Err(at(format!("t_us went backwards for kind {kind:?}")));
        }
        if *expect != keys {
            return Err(at(format!("key sequence drifted for kind {kind:?}")));
        }
        *last_t = t;
    }
    if !seen.contains_key("cluster") {
        return Err("no cluster rows".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telemetry() -> Telemetry {
        let mut t = Telemetry {
            interval_us: 30_000_000,
            ..Telemetry::default()
        };
        for (t_us, slots) in [(30_000_000, 3), (60_000_000, 4)] {
            t.push_row(t_us);
            t.put("map_slots_used", Value::U64(slots));
            t.put("locality_rate", Value::F64(0.5));
        }
        t.nodes.push(NodeSample {
            t_us: 30_000_000,
            node: 0,
            alive: true,
            advertised: true,
            map_used: 1,
            map_total: 2,
            reduce_used: 0,
            reduce_total: 2,
            dynamic_blocks: 1,
            dynamic_bytes: 128,
            tx_util: 0.25,
            rx_util: 0.0,
        });
        t.jobs.push(JobSample {
            t_us: 30_000_000,
            job: 0,
            phase: JobPhase::Running,
            maps_total: 4,
            maps_done: 2,
            node_local: 1,
            rack_local: 1,
            remote: 0,
            reduces_done: 0,
        });
        t
    }

    #[test]
    fn write_order_is_column_order() {
        let mut t = Telemetry::default();
        let mut w = Window::default();
        w.push(0.5);
        w.push(1.5);
        t.push_row(3_000_000);
        t.put("done", Value::U64(5));
        t.put("rate", Value::F64(0.25));
        t.put_window("util", &mut w);
        assert_eq!(
            t.columns,
            ["done", "rate", "util_p50", "util_max", "util_n"]
        );
        assert_eq!(t.cluster[0].t_us, 3_000_000);
        assert_eq!(t.cluster[0].cells[..2], [Value::U64(5), Value::F64(0.25)]);
        assert_eq!(t.cluster[0].cells[3], Value::F64(1.5), "window max");
        assert_eq!(t.cluster[0].cells[4], Value::U64(2), "window sample count");
    }

    #[test]
    fn windows_reset_between_ticks() {
        let mut t = Telemetry::default();
        let mut w = Window::default();
        w.push(1.0);
        for t_us in [1, 2] {
            t.push_row(t_us);
            t.put_window("util", &mut w);
        }
        assert_eq!(t.cluster[0].cells[2], Value::U64(1));
        let empty = [Value::F64(0.0), Value::F64(0.0), Value::U64(0)];
        assert_eq!(t.cluster[1].cells, empty, "an empty window writes zeros");
        assert!(t.cluster_csv().ends_with("\n2,0.000000,0.000000,0\n"));
    }

    #[test]
    fn floats_are_written_fixed_six_decimals() {
        let mut t = Telemetry::default();
        t.push_row(0);
        t.put("n", Value::U64(42));
        t.put("x", Value::F64(0.5));
        t.put("y", Value::F64(1.0 / 3.0));
        assert_eq!(t.cluster_csv(), "t_us,n,x,y\n0,42,0.500000,0.333333\n");
        let jsonl = "{\"kind\":\"cluster\",\"t_us\":0,\"n\":42,\"x\":0.500000,\"y\":0.333333}\n";
        assert_eq!(t.to_jsonl(), jsonl);
        assert_eq!(Value::F64(0.5).as_f64(), 0.5);
        assert_eq!(Value::U64(2).as_f64(), 2.0);
    }

    /// One tick per entry of `ticks`, writing the columns it names.
    fn write_ticks(ticks: &[&[&str]]) -> Telemetry {
        let mut t = Telemetry::default();
        for (t_us, names) in ticks.iter().enumerate() {
            t.push_row(t_us as u64);
            for name in *names {
                t.put(name, Value::U64(1));
            }
        }
        t
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "drifted")]
    fn a_drifting_column_name_fails_the_debug_check() {
        write_ticks(&[&["x"], &["y"]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written twice")]
    fn a_duplicate_column_name_fails_the_debug_check() {
        write_ticks(&[&["x", "x"]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "drifted")]
    fn a_late_column_fails_the_debug_check() {
        write_ticks(&[&["x"], &["x", "y"]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "missed columns")]
    fn a_dropped_column_fails_the_debug_check() {
        write_ticks(&[&["x", "y"], &["x"], &[]]);
    }

    #[test]
    fn csv_has_fixed_header_and_rows() {
        let t = sample_telemetry();
        let csv = t.cluster_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_us,map_slots_used,locality_rate"));
        assert_eq!(lines.next(), Some("30000000,3,0.500000"));
        assert_eq!(lines.next(), Some("60000000,4,0.500000"));
        assert_eq!(
            t.nodes_csv(),
            "t_us,node,alive,advertised,map_used,map_total,reduce_used,reduce_total,\
             dynamic_blocks,dynamic_bytes,tx_util,rx_util\n\
             30000000,0,1,1,1,2,0,2,1,128,0.250000,0.000000\n"
        );
        assert_eq!(
            t.jobs_csv(),
            "t_us,job,phase,maps_total,maps_done,node_local,rack_local,remote,reduces_done\n\
             30000000,0,running,4,2,1,1,0,0\n"
        );
        let empty = Telemetry::default();
        assert_eq!(empty.cluster_csv(), "t_us\n");
        assert_eq!(empty.jobs_csv().lines().count(), 1, "header only");
    }

    #[test]
    fn jsonl_roundtrips_the_validator() {
        let t = sample_telemetry();
        let jsonl = t.to_jsonl();
        validate_jsonl(&jsonl).expect("schema-valid export");
        assert!(jsonl.starts_with("{\"kind\":\"cluster\",\"t_us\":30000000"));
        assert!(jsonl.contains("\"kind\":\"node\""));
        assert!(jsonl.contains("\"phase\":\"running\""));
    }

    #[test]
    fn validator_rejects_drift() {
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"kind\":\"bogus\",\"t_us\":1}\n").is_err());
        assert!(validate_jsonl("{\"t_us\":1,\"kind\":\"cluster\"}\n").is_err());
        // t_us going backwards within a kind
        let back = "{\"kind\":\"cluster\",\"t_us\":5,\"x\":1}\n\
                    {\"kind\":\"cluster\",\"t_us\":4,\"x\":1}\n";
        assert!(validate_jsonl(back).is_err());
        // key sequence drift within a kind
        let drift = "{\"kind\":\"cluster\",\"t_us\":5,\"x\":1}\n\
                     {\"kind\":\"cluster\",\"t_us\":6,\"y\":1}\n";
        assert!(validate_jsonl(drift).is_err());
        // no cluster rows at all
        assert!(validate_jsonl("{\"kind\":\"node\",\"t_us\":1,\"node\":0}\n").is_err());
    }

    #[test]
    fn summary_table_picks_spaced_rows() {
        let t = sample_telemetry();
        let table = t.summary_table(10);
        assert!(table.contains("t_s"));
        assert_eq!(table.lines().count(), 3, "header + 2 ticks");
        assert!(t.summary().contains("2 ticks"));
        assert_eq!(t.value(0, "map_slots_used"), Some(Value::U64(3)));
        assert_eq!(t.value(0, "missing"), None);
    }
}
