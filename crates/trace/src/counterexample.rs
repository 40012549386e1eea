//! Shared counterexample artifact format.
//!
//! Both exhaustive checking (`dare-mc`) and chaos fuzzing (`dare-chaos`)
//! end the same way: a violating run that must be saved as a *replayable
//! witness*, not a one-off log line. This module owns that artifact
//! format so the two tools emit byte-identical files instead of two
//! drifting copies:
//!
//! ```text
//! # <tool> counterexample
//! # config: <one-line reproduction bounds>
//! # violation: <error message, one header line per message line>
//! # <key>: <payload>        (repeated; e.g. "action: crash 1 45")
//! {"t":0,...}               (the violating run's structured trace)
//! ```
//!
//! `#` headers carry everything needed to re-run the witness; the body is
//! ordinary trace JSONL, so [`crate::from_jsonl`] reads a stripped
//! file and [`crate::diff_golden`] (which normalizes comments away)
//! compares a replay against the saved artifact directly.

use crate::recorder::Trace;

/// Render a violating run as a `#`-header counterexample artifact.
///
/// `config` is a one-line summary of the reproduction bounds;
/// `violation` may span multiple lines (each becomes its own
/// `# violation:` header; an empty string emits none). `headers` are
/// `(key, payload)` pairs emitted in order as `# key: payload` — the
/// replay loader reads them back with [`header_values`]. When `trace` is
/// `Some`, its JSONL serialization forms the body.
pub fn render_counterexample(
    tool: &str,
    config: &str,
    violation: &str,
    headers: &[(&str, String)],
    trace: Option<&Trace>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {tool} counterexample\n"));
    out.push_str(&format!("# config: {config}\n"));
    for line in violation.lines() {
        out.push_str(&format!("# violation: {line}\n"));
    }
    for (key, payload) in headers {
        out.push_str(&format!("# {key}: {payload}\n"));
    }
    if let Some(t) = trace {
        out.push_str(&crate::export::to_jsonl(t));
    }
    out
}

/// Strip the `#` header lines of a counterexample, leaving the pure
/// trace JSONL (what [`crate::from_jsonl`] reads). The golden
/// differ does this internally; other consumers use this helper.
pub fn strip_headers(counterexample: &str) -> String {
    let mut out = String::new();
    for line in counterexample.lines() {
        if !line.trim_start().starts_with('#') && !line.trim().is_empty() {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Collect the payloads of every `# key: payload` header line, in file
/// order. The inverse of the `headers` argument to
/// [`render_counterexample`]; unrelated headers and body lines are
/// ignored.
pub fn header_values(counterexample: &str, key: &str) -> Vec<String> {
    let prefix = format!("# {key}:");
    counterexample
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|rest| rest.trim().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_then_body() {
        let s = render_counterexample(
            "dare-test",
            "nodes=3",
            "boom\nbang",
            &[("action", "advance".into()), ("action", "kill 2".into())],
            None,
        );
        assert_eq!(
            s,
            "# dare-test counterexample\n# config: nodes=3\n# violation: boom\n\
             # violation: bang\n# action: advance\n# action: kill 2\n"
        );
    }

    #[test]
    fn empty_violation_emits_no_violation_header() {
        let s = render_counterexample("t", "c", "", &[], None);
        assert_eq!(s, "# t counterexample\n# config: c\n");
    }

    #[test]
    fn header_values_round_trip_and_ignore_strangers() {
        let s = render_counterexample(
            "t",
            "c",
            "err",
            &[
                ("fault", "a".into()),
                ("other", "x".into()),
                ("fault", "b".into()),
            ],
            None,
        );
        assert_eq!(header_values(&s, "fault"), vec!["a", "b"]);
        assert_eq!(header_values(&s, "missing"), Vec::<String>::new());
    }

    #[test]
    fn strip_headers_leaves_only_body() {
        let text = "# a\n# b: c\n{\"x\":1}\n\n{\"y\":2}\n";
        assert_eq!(strip_headers(text), "{\"x\":1}\n{\"y\":2}\n");
    }
}
