//! ASCII Gantt rendering of the map-attempt spans of a trace.
//!
//! Turns [`task_spans`](crate::task_spans) into a per-node lane chart for
//! eyeballing schedules in a terminal: where tasks ran, which were remote
//! reads, where failures re-executed work, where backups raced
//! stragglers. One character column spans `makespan / width` seconds;
//! each node gets one lane per concurrently running attempt.
//!
//! Legend: `#` node-local attempt, `o` non-local attempt, `s` speculative
//! backup, `x` aborted attempt (node failure), `.` idle.

use crate::event::Loc;
use crate::query::TaskSpan;
use dare_simcore::time::SimTime;
use std::fmt::Write as _;

/// Render `spans` as an ASCII chart `width` characters wide.
/// Returns an empty string when there are no spans.
pub fn render(spans: &[TaskSpan], width: usize) -> String {
    assert!(width >= 10, "chart too narrow");
    if spans.is_empty() {
        return String::new();
    }
    let t_end = spans
        .iter()
        .map(span_end)
        .max()
        .expect("non-empty")
        .as_secs_f64()
        .max(1e-9);
    let nodes = spans.iter().map(|r| r.node).max().expect("non-empty") as usize + 1;

    let col = |t: SimTime| -> usize {
        ((t.as_secs_f64() / t_end) * (width as f64 - 1.0)).round() as usize
    };

    // Greedy lane packing per node.
    let mut lanes: Vec<Vec<Vec<u8>>> = vec![Vec::new(); nodes]; // node -> lane -> row
    let mut lane_free_at: Vec<Vec<usize>> = vec![Vec::new(); nodes]; // col where lane frees

    let mut sorted: Vec<&TaskSpan> = spans.iter().collect();
    sorted.sort_by_key(|r| (r.start, r.job, r.task, r.attempt));

    for r in sorted {
        let start = col(r.start);
        let end = col(span_end(r)).max(start);
        let glyph = if !r.committed {
            b'x'
        } else if r.speculative {
            b's'
        } else if r.loc == Loc::Node {
            b'#'
        } else {
            b'o'
        };
        let node = r.node as usize;
        // First lane free before this start, else a new lane.
        let lane = match lane_free_at[node].iter().position(|&f| f <= start) {
            Some(l) => l,
            None => {
                lanes[node].push(vec![b'.'; width]);
                lane_free_at[node].push(0);
                lanes[node].len() - 1
            }
        };
        for c in lanes[node][lane].iter_mut().take(end + 1).skip(start) {
            *c = glyph;
        }
        lane_free_at[node][lane] = end + 1;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "t=0s{:>pad$}",
        format!("t={t_end:.0}s"),
        pad = width.saturating_sub(1)
    );
    for (n, node_lanes) in lanes.iter().enumerate() {
        for (l, row) in node_lanes.iter().enumerate() {
            let label = if l == 0 {
                format!("n{n:<3}")
            } else {
                "    ".to_string()
            };
            let _ = writeln!(out, "{label} {}", String::from_utf8_lossy(row));
        }
    }
    let _ = writeln!(
        out,
        "legend: # local read, o remote read, s speculative, x aborted"
    );
    out
}

/// Where a span's bar ends: its commit or abort, else its read, else its
/// launch.
fn span_end(r: &TaskSpan) -> SimTime {
    r.end.or(r.read_done).unwrap_or(r.start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, start: u64, end: u64, local: bool) -> TaskSpan {
        TaskSpan {
            job: 0,
            task: 0,
            attempt: 0,
            node,
            loc: if local { Loc::Node } else { Loc::Remote },
            speculative: false,
            start: SimTime::from_secs(start),
            read_done: Some(SimTime::from_secs(start)),
            end: Some(SimTime::from_secs(end)),
            committed: true,
        }
    }

    #[test]
    fn empty_timeline_renders_empty() {
        assert_eq!(render(&[], 40), "");
    }

    #[test]
    fn spans_and_glyphs_land_where_expected() {
        let records = vec![rec(0, 0, 50, true), rec(1, 50, 100, false)];
        let chart = render(&records, 101);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].starts_with("t=0s"));
        assert!(lines[0].ends_with("t=100s"));
        // node 0: '#' over the first half
        let n0 = lines[1];
        assert!(n0.starts_with("n0"));
        assert!(n0.contains('#'));
        assert!(!n0.contains('o'));
        // node 1: 'o' over the second half
        let n1 = lines[2];
        assert!(n1.contains('o'));
        assert!(!n1.contains('#'));
        assert!(chart.contains("legend:"));
    }

    #[test]
    fn overlapping_attempts_get_separate_lanes() {
        let records = vec![rec(0, 0, 80, true), rec(0, 40, 100, false)];
        let chart = render(&records, 60);
        // Two lanes for node 0: the n0-labelled one plus one indented.
        let lanes = chart
            .lines()
            .filter(|l| l.starts_with("n0") || l.starts_with("    "))
            .count();
        assert_eq!(lanes, 2, "chart:\n{chart}");
    }

    #[test]
    fn aborted_attempts_are_marked() {
        let mut r = rec(0, 0, 10, true);
        r.committed = false;
        r.read_done = None;
        let other = rec(0, 20, 100, true);
        let chart = render(&[r, other], 50);
        assert!(chart.contains('x'), "chart:\n{chart}");
    }

    #[test]
    fn speculative_attempts_are_marked() {
        let mut r = rec(2, 0, 100, false);
        r.speculative = true;
        let chart = render(&[r], 40);
        assert!(chart.contains('s'));
        // nodes 0 and 1 exist as empty-laneless entries only if they had
        // records; here only n2 appears with a lane.
        assert!(chart.contains("n2"));
    }
}
