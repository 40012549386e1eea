//! Every committed `results/BENCH_*.json` is a release-build report in
//! the bench envelope: it parses, carries the `dare-bench-v1` schema and
//! `"build": "release"`, names the bench its file is named after, and
//! records the command that regenerates it.

use dare_simcore::json::{self, BENCH_SCHEMA};

#[test]
fn committed_bench_reports_are_release_envelopes() {
    let dir = dare_bench::results_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("results directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(bench) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).expect("readable report");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let field = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_str(key))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        assert_eq!(field("schema"), BENCH_SCHEMA, "{name}");
        assert_eq!(field("build"), "release", "{name}");
        assert_eq!(field("bench"), bench, "{name}");
        assert!(
            field("command").starts_with("cargo ")
                || field("command").starts_with("BENCH_QUICK=1 cargo "),
            "{name}"
        );
        seen += 1;
    }
    assert!(seen >= 8, "{seen} BENCH reports under {}", dir.display());
}
