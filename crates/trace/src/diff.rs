//! Normalizing differ for golden-trace files.
//!
//! Golden files are JSONL exports with optional `#`-comment header lines.
//! The differ normalizes both sides (strips comments and blank lines,
//! tolerates trailing whitespace / CRLF) and reports the first divergence
//! with surrounding context plus the refresh command, so a failing golden
//! test tells the reader exactly what to do next.

/// Strip comment lines, blank lines and trailing whitespace.
fn normalize(text: &str) -> Vec<&str> {
    text.lines()
        .map(|l| l.trim_end())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Compare an actual JSONL export against golden content.
///
/// Returns `None` when they match after normalization, otherwise a
/// human-readable report: the first diverging line number (1-based in
/// the normalized stream), up to two lines of context before it, both
/// versions of the diverging line, and a tally of how far the tails
/// differ.
pub fn diff_golden(golden: &str, actual: &str) -> Option<String> {
    let g = normalize(golden);
    let a = normalize(actual);
    if g == a {
        return None;
    }

    let mut report = String::new();
    let first_diff = g
        .iter()
        .zip(a.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| g.len().min(a.len()));

    report.push_str(&format!(
        "golden trace mismatch: {} golden lines vs {} actual lines, first divergence at line {}\n",
        g.len(),
        a.len(),
        first_diff + 1
    ));
    let ctx_from = first_diff.saturating_sub(2);
    for (i, line) in g.iter().enumerate().take(first_diff).skip(ctx_from) {
        report.push_str(&format!("  {:>5} | {line}\n", i + 1));
    }
    match (g.get(first_diff), a.get(first_diff)) {
        (Some(want), Some(got)) => {
            report.push_str(&format!("- {:>5} | {want}\n", first_diff + 1));
            report.push_str(&format!("+ {:>5} | {got}\n", first_diff + 1));
        }
        (Some(want), None) => {
            report.push_str(&format!(
                "- {:>5} | {want}\n+ {:>5} | <actual trace ends here>\n",
                first_diff + 1,
                first_diff + 1
            ));
        }
        (None, Some(got)) => {
            report.push_str(&format!(
                "- {:>5} | <golden trace ends here>\n+ {:>5} | {got}\n",
                first_diff + 1,
                first_diff + 1
            ));
        }
        (None, None) => {}
    }
    let tail = g.len().max(a.len()) - first_diff;
    if tail > 1 {
        report.push_str(&format!(
            "  ... {} more line(s) may differ after this\n",
            tail - 1
        ));
    }
    report.push_str(
        "  If the behaviour change is intentional, refresh the goldens with:\n  \
         UPDATE_GOLDEN=1 cargo test --test golden_trace\n",
    );
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_after_normalization() {
        let golden = "# header comment\n{\"t\":0}\n\n{\"t\":1}\n";
        let actual = "{\"t\":0}\r\n{\"t\":1}\n";
        assert!(diff_golden(golden, actual).is_none());
    }

    #[test]
    fn reports_first_divergence_with_context() {
        let golden = "{\"t\":0}\n{\"t\":1}\n{\"t\":2}\n{\"t\":3}\n";
        let actual = "{\"t\":0}\n{\"t\":1}\n{\"t\":9}\n{\"t\":3}\n";
        let report = diff_golden(golden, actual).expect("should differ");
        assert!(report.contains("first divergence at line 3"), "{report}");
        assert!(report.contains("- ") && report.contains("+ "), "{report}");
        assert!(report.contains("UPDATE_GOLDEN=1"), "{report}");
    }

    #[test]
    fn reports_length_mismatch() {
        let golden = "{\"t\":0}\n";
        let actual = "{\"t\":0}\n{\"t\":1}\n";
        let report = diff_golden(golden, actual).expect("should differ");
        assert!(report.contains("<golden trace ends here>"), "{report}");
    }
}
